package core_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// tenBits is a 10-bit stage payload; unsizedPayload has no Bits method.
type tenBits struct{}

func (tenBits) Bits() int { return 10 }

type unsizedPayload struct{}

// sendOnce sends its payload to every neighbor in its first round —
// returned as Outs or through StageCtx.Broadcast — and outputs in its
// second.
type sendOnce struct {
	payload   any
	broadcast bool
}

func (m *sendOnce) Send(c *core.StageCtx) []runtime.Out {
	if c.StageRound() > 1 {
		c.Output(0)
		return nil
	}
	if m.broadcast {
		c.Broadcast(m.payload)
		return nil
	}
	return runtime.Broadcast(c.Info(), m.payload)
}

func (m *sendOnce) Receive(c *core.StageCtx, inbox []runtime.Msg) {}

// TestTemplateCongestError: under a CONGEST budget a template run is sized
// and reported by its stage payload. The tag header counts, so a 10-bit
// payload is an 18-bit message, and an unsized payload is named by its own
// type, whichever way the stage sent it.
func TestTemplateCongestError(t *testing.T) {
	g := graph.Line(3)
	run := func(payload any, broadcast bool, limit int) (*runtime.Result, error) {
		return runtime.Run(runtime.Config{
			Graph: g,
			Factory: core.Sequence(nil, core.Stage{
				Name: "send-once",
				New: func(runtime.NodeInfo, any, any) core.StageMachine {
					return &sendOnce{payload: payload, broadcast: broadcast}
				},
			}),
			MaxMessageBits: limit,
		})
	}
	for _, broadcast := range []bool{false, true} {
		res, err := run(tenBits{}, broadcast, 18)
		if err != nil {
			t.Fatalf("broadcast=%v: 18-bit message under an 18-bit budget: %v", broadcast, err)
		}
		if res.MaxMsgBits != 18 {
			t.Errorf("broadcast=%v: MaxMsgBits = %d, want 18 (8-bit header + 10-bit payload)", broadcast, res.MaxMsgBits)
		}
		_, err = run(tenBits{}, broadcast, 17)
		want := "runtime: CONGEST bandwidth violation: node 1 sent 18 bits (limit 17)"
		if !errors.Is(err, runtime.ErrCongestViolation) || err.Error() != want {
			t.Errorf("broadcast=%v: over budget: got %v, want %q", broadcast, err, want)
		}
		_, err = run(unsizedPayload{}, broadcast, 1024)
		want = "runtime: CONGEST bandwidth violation: node 1 sent an unsized payload core_test.unsizedPayload"
		if !errors.Is(err, runtime.ErrCongestViolation) || err.Error() != want {
			t.Errorf("broadcast=%v: unsized: got %v, want %q", broadcast, err, want)
		}
	}
}
