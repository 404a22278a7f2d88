package heal_test

import (
	"math/rand"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/heal"
	"repro/internal/predict"
	"repro/internal/verify"
)

// TestLinearGrowth times the identifier-keyed helpers around the engine at
// n and 8n nodes on shuffled-ID graphs and fails when the time ratio
// exceeds 24. Linear or n log n work gives a ratio near 8-11; a hidden
// quadratic scan (an identifier lookup by linear search, an insertion sort)
// gives about 64. Each size takes the minimum of 5 interleaved runs, so a
// single preemption or collection does not decide the result.
func TestLinearGrowth(t *testing.T) {
	const (
		small    = 2000
		factor   = 8
		runs     = 5
		maxRatio = 24.0
	)
	type input struct {
		g     *graph.Graph
		match []int // a maximal matching, as partner identifiers
	}
	build := func(n int) input {
		rng := rand.New(rand.NewSource(int64(n)))
		g := graph.ShuffleIDs(graph.BarabasiAlbert(n, 3, rng), 4*n, rng)
		return input{g: g, match: exact.GreedyMatchingByID(g)}
	}
	ops := []struct {
		name string
		run  func(in input) error
	}{
		{"verify.Matching", func(in input) error { return verify.Matching(in.g, in.match) }},
		{"verify.MatchingPartialExtendable", func(in input) error {
			return verify.MatchingPartialExtendable(in.g, in.match)
		}},
		{"heal.CarveMatching", func(in input) error {
			heal.CarveMatching(in.g, in.match)
			return nil
		}},
		{"predict.MatchingBaseActive", func(in input) error {
			predict.MatchingBaseActive(in.g, in.match)
			return nil
		}},
		{"exact.GreedyMISByID", func(in input) error {
			exact.GreedyMISByID(in.g)
			return nil
		}},
		{"predict.PerfectVColor", func(in input) error {
			predict.PerfectVColor(in.g)
			return nil
		}},
		{"graph.RandomTree", func(in input) error {
			graph.RandomTree(in.g.N(), rand.New(rand.NewSource(int64(in.g.N()))))
			return nil
		}},
	}
	lo, hi := build(small), build(factor*small)
	timeOnce := func(run func(input) error, in input) time.Duration {
		goruntime.GC()
		start := time.Now()
		if err := run(in); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	for _, op := range ops {
		bestLo, bestHi := time.Duration(1<<62), time.Duration(1<<62)
		for r := 0; r < runs; r++ {
			bestLo = min(bestLo, timeOnce(op.run, lo))
			bestHi = min(bestHi, timeOnce(op.run, hi))
		}
		ratio := float64(bestHi) / float64(max(bestLo, time.Microsecond))
		t.Logf("%s: n=%d %v, n=%d %v, ratio %.1f", op.name, small, bestLo, factor*small, bestHi, ratio)
		if ratio > maxRatio {
			t.Errorf("%s grows superlinearly: %v at n=%d, %v at n=%d (ratio %.1f > %.0f)",
				op.name, bestLo, small, bestHi, factor*small, ratio, maxRatio)
		}
	}
}
