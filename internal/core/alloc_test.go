package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// tick is the allocation workload's payload: zero-sized, so boxing it never
// allocates and every allocation the test counts belongs to the engine or
// the combinators.
type tick struct{}

func (tick) Bits() int { return 1 }

// tickBroadcast broadcasts a tick through StageCtx.Broadcast every round
// for a fixed number of stage rounds, then outputs.
type tickBroadcast struct{ rounds int }

func (m *tickBroadcast) Send(c *core.StageCtx) []runtime.Out {
	if c.StageRound() > m.rounds {
		c.Output(0)
		return nil
	}
	c.Broadcast(tick{})
	return nil
}

func (m *tickBroadcast) Receive(c *core.StageCtx, inbox []runtime.Msg) {}

// tickLane returns a tick for every neighbor from an outbox built once: a
// Parallel U+R1 lane, which must return its sends because the other lane
// sends in the same round.
type tickLane struct{ outs []runtime.Out }

func newTickLane(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
	m := &tickLane{outs: make([]runtime.Out, len(info.NeighborIDs))}
	for i, nb := range info.NeighborIDs {
		m.outs[i] = runtime.Out{To: nb, Payload: tick{}}
	}
	return m
}

func (m *tickLane) Send(c *core.StageCtx) []runtime.Out           { return m.outs }
func (m *tickLane) Receive(c *core.StageCtx, inbox []runtime.Msg) {}

// outputNow outputs in its first round (the Parallel template's part 2).
type outputNow struct{}

func (outputNow) Send(c *core.StageCtx) []runtime.Out {
	c.Output(0)
	return nil
}
func (outputNow) Receive(c *core.StageCtx, inbox []runtime.Msg) {}

// templateFactory builds the two template shapes the alloc budget covers:
// a Sequence whose stage broadcasts every round, and a Parallel template
// whose U+R1 section has both lanes send every round.
func templateFactory(parallelTemplate bool, rounds int) runtime.Factory {
	if !parallelTemplate {
		return core.Sequence(nil, core.Stage{
			Name: "tick",
			New: func(runtime.NodeInfo, any, any) core.StageMachine {
				return &tickBroadcast{rounds: rounds}
			},
		})
	}
	return core.Parallel(core.ParallelSpec{
		B: core.Stage{
			Name:   "tick",
			Budget: 1,
			New: func(runtime.NodeInfo, any, any) core.StageMachine {
				return &tickBroadcast{rounds: 1}
			},
		},
		U:        newTickLane,
		R1:       newTickLane,
		R1Budget: func(runtime.NodeInfo) int { return rounds },
		R2:       func(runtime.NodeInfo, any, any) core.StageMachine { return outputNow{} },
	})
}

// TestTemplateAllocBudget is the combinators' allocation-regression test,
// in the style of the engine's TestSteadyStateAllocBudget: on a 4096-node
// ring, the marginal cost of an extra template round must stay within a
// GC-noise budget. Stage tags ride in the engine's message, stage
// broadcasts take Env.Broadcast, and the lockstep check and the Parallel
// lane split work in place, so a round costs ~0 allocations; boxing each
// message into a wrapper, or copying each inbox, costs at least n.
func TestTemplateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement; skipped with -short")
	}
	const n = 4096
	g := graph.Ring(n)
	run := func(rounds int, parallelTemplate, poolEngine bool) {
		res, err := runtime.Run(runtime.Config{
			Graph:     g,
			Factory:   templateFactory(parallelTemplate, rounds),
			Parallel:  poolEngine,
			MaxRounds: rounds + 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Messages < rounds*2*n {
			t.Fatalf("%d messages over %d rounds; the workload is not sending", res.Messages, rounds)
		}
	}
	for _, mode := range []struct {
		name                         string
		parallelTemplate, poolEngine bool
		budget                       float64
	}{
		{"sequence-broadcast/seq", false, false, 8},
		{"sequence-broadcast/par", false, true, 16},
		{"parallel-section/seq", true, false, 8},
		{"parallel-section/par", true, true, 16},
	} {
		measure := func(rounds int) float64 {
			return testing.AllocsPerRun(3, func() { run(rounds, mode.parallelTemplate, mode.poolEngine) })
		}
		short, long := measure(10), measure(210)
		perRound := (long - short) / 200
		t.Logf("%s: %.1f allocs over 10 rounds, %.1f over 210 -> %.3f allocs/round",
			mode.name, short, long, perRound)
		if perRound > mode.budget {
			t.Errorf("%s: %.1f allocs/round exceeds budget %.0f", mode.name, perRound, mode.budget)
		}
	}
}
