package core_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// countStage yields (or outputs) after a fixed number of rounds, recording
// its execution trace into the shared memory for assertions.
type trace struct {
	events []string
}

func mem(info runtime.NodeInfo, pred any) any { return &trace{} }

// stage runs for `rounds` stage rounds and then either outputs `out` (when
// terminal) or yields.
func stage(name string, rounds int, out any) core.Stage {
	return core.Stage{
		Name: name,
		New: func(info runtime.NodeInfo, pred any, m any) core.StageMachine {
			return &stageMachine{name: name, rounds: rounds, out: out, tr: m.(*trace)}
		},
	}
}

type stageMachine struct {
	name   string
	rounds int
	out    any
	tr     *trace
}

type ping struct{ Stage string }

func (m *stageMachine) Send(c *core.StageCtx) []runtime.Out {
	m.tr.events = append(m.tr.events, m.name)
	return runtime.Broadcast(c.Info(), ping{Stage: m.name})
}

func (m *stageMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	for _, msg := range inbox {
		p, ok := msg.Payload.(ping)
		if !ok || p.Stage != m.name {
			c.Fail(errTrace("cross-stage message leaked"))
			return
		}
	}
	if c.StageRound() >= m.rounds {
		if m.out != nil {
			c.Output(m.out)
		} else {
			c.Yield()
		}
	}
}

type errTrace string

func (e errTrace) Error() string { return string(e) }

func TestSequenceRunsStagesInOrder(t *testing.T) {
	g := graph.Ring(5)
	var traces []*trace
	factory := func(info runtime.NodeInfo, pred any) runtime.Machine {
		inner := core.Sequence(
			func(i runtime.NodeInfo, p any) any {
				tr := &trace{}
				traces = append(traces, tr)
				return tr
			},
			stage("a", 2, nil),
			stage("b", 3, nil),
			stage("c", 1, "done"),
		)
		return inner(info, pred)
	}
	res, err := runtime.Run(runtime.Config{Graph: g, Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 6 {
		t.Fatalf("rounds = %d, want 2+3+1 = 6", res.Rounds)
	}
	for _, o := range res.Outputs {
		if o != "done" {
			t.Errorf("output %v", o)
		}
	}
	for _, tr := range traces {
		got := strings.Join(tr.events, "")
		if got != "aabbbc" {
			t.Errorf("trace %q, want aabbbc", got)
		}
	}
}

func TestSequenceBudgetInterrupts(t *testing.T) {
	g := graph.Line(3)
	factory := core.Sequence(mem,
		core.Stage{
			Name:   "long",
			Budget: 2, // interrupt a 100-round stage after 2 rounds
			New:    stage("long", 100, nil).New,
		},
		stage("fin", 1, 7),
	)
	res, err := runtime.Run(runtime.Config{Graph: g, Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 2 (budget) + 1", res.Rounds)
	}
	for _, o := range res.Outputs {
		if o != 7 {
			t.Errorf("output %v, want 7", o)
		}
	}
}

func TestSequencePastFinalStageFails(t *testing.T) {
	g := graph.Line(2)
	factory := core.Sequence(mem, stage("only", 1, nil)) // yields, nothing follows
	_, err := runtime.Run(runtime.Config{Graph: g, Factory: factory})
	if err == nil || !strings.Contains(err.Error(), "past final stage") {
		t.Fatalf("want past-final-stage error, got %v", err)
	}
}

// desyncStage yields at different rounds on different nodes, breaking the
// lockstep contract; the tag checks must catch the resulting cross-stage
// message, with the exact error text (the untagged-message text is pinned
// by the root package's chaos ledger golden).
func TestSequenceLockstepViolationDetected(t *testing.T) {
	g := graph.Line(2)
	factory := core.Sequence(mem,
		core.Stage{
			Name: "desync",
			New: func(info runtime.NodeInfo, pred any, m any) core.StageMachine {
				rounds := 1
				if info.ID == 2 {
					rounds = 3
				}
				return &stageMachine{name: "desync", rounds: rounds, tr: m.(*trace)}
			},
		},
		stage("next", 5, "x"),
	)
	_, err := runtime.Run(runtime.Config{Graph: g, Factory: factory})
	want := `node 1 round 2: runtime: protocol violation: core: lockstep violation: message from node 2 on lane 0 stage 0, expected lane 0 stage 1 (stage "next")`
	if err == nil || err.Error() != want {
		t.Fatalf("want lockstep violation error:\n got  %v\n want %s", err, want)
	}
	if !errors.Is(err, runtime.ErrProtocol) {
		t.Errorf("%v does not wrap ErrProtocol", err)
	}
}

func TestSharedMemoryAcrossStages(t *testing.T) {
	g := graph.Line(2)
	writer := core.Stage{
		Name: "writer",
		New: func(info runtime.NodeInfo, pred any, m any) core.StageMachine {
			return writerMachine{st: m.(*sharedState)}
		},
	}
	reader := core.Stage{
		Name: "reader",
		New: func(info runtime.NodeInfo, pred any, m any) core.StageMachine {
			return readerMachine{st: m.(*sharedState)}
		},
	}
	factory := core.Sequence(
		func(runtime.NodeInfo, any) any { return &sharedState{} },
		writer, reader,
	)
	res, err := runtime.Run(runtime.Config{Graph: g, Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outputs {
		if o != 42 {
			t.Errorf("output %v, want 42 via shared memory", o)
		}
	}
}

type sharedState struct{ v int }

type writerMachine struct{ st *sharedState }

func (m writerMachine) Send(c *core.StageCtx) []runtime.Out { return nil }
func (m writerMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	m.st.v = 42
	c.Yield()
}

type readerMachine struct{ st *sharedState }

func (m readerMachine) Send(c *core.StageCtx) []runtime.Out { return nil }
func (m readerMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	c.Output(m.st.v)
}

func TestPredictionsReachStageFactories(t *testing.T) {
	g := graph.Line(3)
	factory := core.Sequence(mem, core.Stage{
		Name: "pred-echo",
		New: func(info runtime.NodeInfo, pred any, m any) core.StageMachine {
			return predEcho{pred: pred}
		},
	})
	preds := []any{10, 20, 30}
	res, err := runtime.Run(runtime.Config{Graph: g, Factory: factory, Predictions: preds})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outputs {
		if o != preds[i] {
			t.Errorf("node %d output %v, want %v", i, o, preds[i])
		}
	}
}

type predEcho struct{ pred any }

func (m predEcho) Send(c *core.StageCtx) []runtime.Out { return nil }
func (m predEcho) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	c.Output(m.pred)
}
