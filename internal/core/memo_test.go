package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/runtime"
)

// TestMemoBudgetOncePerRun: the Parallel template's R1 budget is computed
// once per (N, D, Δ) however many nodes ask, from however many goroutines
// (pool workers ask from Receive), and recomputed when a factory is reused
// on a graph with other parameters.
func TestMemoBudgetOncePerRun(t *testing.T) {
	var calls atomic.Int64
	budget := memoBudget(func(info runtime.NodeInfo) int {
		calls.Add(1)
		return info.N + 10*info.D + 100*info.Delta
	})
	ask := func(info runtime.NodeInfo, want int) {
		const workers, perWorker = 8, 500
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					node := info
					node.Index, node.ID = i, i+1
					if got := budget(node); got != want {
						t.Errorf("budget(%+v) = %d, want %d", node, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	ask(runtime.NodeInfo{N: 4000, D: 4000, Delta: 7}, 4000+40000+700)
	// Racing first calls may each compute, but never once per node.
	if c := calls.Load(); c < 1 || c > 8 {
		t.Fatalf("%d budget computations for 4000 asks from 8 goroutines", c)
	}
	before := calls.Load()
	ask(runtime.NodeInfo{N: 4000, D: 4000, Delta: 7}, 4000+40000+700)
	if c := calls.Load(); c != before {
		t.Errorf("a warm key recomputed %d times", c-before)
	}
	ask(runtime.NodeInfo{N: 50, D: 60, Delta: 3}, 50+600+300)
	if c := calls.Load(); c == before {
		t.Error("a new (N, D, Delta) key reused the old budget")
	}
}
