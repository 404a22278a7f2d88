// Package core implements the paper's framework for distributed graph
// algorithms with predictions (Sections 4, 6, 7): algorithms are composed
// from stages — a reasonable initialization algorithm, a measure-uniform
// algorithm, a clean-up algorithm, and a reference algorithm — and the four
// templates (Simple, Consecutive, Interleaved, Parallel) are generic
// combinators over those stages.
//
// Stage machines are written exactly like ordinary per-node machines; the
// combinators multiplex their messages onto the underlying network by
// stamping each message's engine tag (runtime.Msg.Tag) with the lane and
// stage it belongs to, so the composed algorithms use their components as
// black boxes, as the paper prescribes. Payloads are never boxed: returned
// Outs are stamped in place, StageCtx.Broadcast rides the engine's
// Env.Broadcast fast path, and each receive checks the inbox's tags in
// place before handing the engine's inbox to the stage unchanged. A message
// with the wrong tag is a lockstep violation and an untagged one (a payload
// the adversary replaced) is a protocol error. The (lane, stage) encoding is
// private to this package; the engine only copies the tag and accounts
// runtime.TagHeaderBits for it.
// A per-node shared memory (created once per node, visible to every stage of
// that node) carries the knowledge the paper assumes persists across stages,
// such as which neighbors have terminated with which outputs.
package core

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/runtime"
)

// StageMachine is the per-node behaviour of one algorithm stage. The
// send/receive contract matches runtime.Machine; the StageCtx additionally
// allows the machine to yield (finish the stage without a final output,
// handing the node to the next stage).
type StageMachine interface {
	Send(c *StageCtx) []runtime.Out
	Receive(c *StageCtx, inbox []runtime.Msg)
}

// StageFactory creates the stage machine for one node. mem is the node's
// shared memory (see Compose); pred is the node's prediction.
type StageFactory func(info runtime.NodeInfo, pred any, mem any) StageMachine

// Stage is one stage of a composed algorithm.
type Stage struct {
	// Name identifies the stage in error messages and traces.
	Name string
	// Budget caps the stage at a fixed number of rounds; after the budget
	// elapses every node still in the stage is forcibly yielded (the paper's
	// "interrupted after a given number of rounds"). Budget 0 means the
	// stage runs until every node outputs or yields.
	Budget int
	// New builds the per-node machine for this stage.
	New StageFactory
}

// MemoryFactory creates the per-node shared memory visible to all stages of
// that node. It may return nil when stages need no shared state.
type MemoryFactory func(info runtime.NodeInfo, pred any) any

// StageCtx is the environment a stage machine sees. It wraps the node's
// runtime environment and adds stage-local control flow.
type StageCtx struct {
	env        *runtime.Env
	mem        any
	tag        uint32
	stageRound int
	yielded    bool
}

// newCtx returns a fresh context for a stage running on the given lane and
// stage index.
func newCtx(mem any, lane uint8, stage uint16) StageCtx {
	return StageCtx{mem: mem, tag: stageTag(lane, stage)}
}

// Info returns the node's static information.
func (c *StageCtx) Info() runtime.NodeInfo { return c.env.Info() }

// ID returns the node's identifier.
func (c *StageCtx) ID() int { return c.env.ID() }

// Round returns the global round number (1-based).
func (c *StageCtx) Round() int { return c.env.Round() }

// StageRound returns the number of rounds this stage has been stepped on
// this node, counting the current round (1-based).
func (c *StageCtx) StageRound() int { return c.stageRound }

// Memory returns the node's shared memory.
func (c *StageCtx) Memory() any { return c.mem }

// Output assigns the node's final output and terminates it; later stages
// never run on this node.
func (c *StageCtx) Output(v any) {
	c.env.Output(v)
	c.env.Terminate()
}

// PartialOutput records an output value without terminating the node. Used
// by problems whose nodes emit outputs over several rounds (edge coloring);
// the final call to Output fixes the complete value.
func (c *StageCtx) PartialOutput(v any) {
	c.env.Output(v)
}

// Yield finishes this stage for the node without a final output; the next
// stage takes over starting next round.
func (c *StageCtx) Yield() { c.yielded = true }

// Broadcast sends payload to every neighbor this round on the engine's
// zero-allocation path (runtime.Env.BroadcastTagged with this stage's tag).
// Call it from Send at most once per round and return nil. A stage that
// shares its rounds with another sender — a lane of the Parallel
// template's U+R1 section — must return its messages instead: the engine
// rejects a broadcast alongside returned sends, or two in one round.
func (c *StageCtx) Broadcast(payload runtime.Payload) { c.env.BroadcastTagged(payload, c.tag) }

// Fail records a protocol error that aborts the run.
func (c *StageCtx) Fail(err error) { c.env.Fail(err) }

// Tracing reports whether a trace recorder is attached to the run; guard
// annotation-string construction on it to keep the disabled path free.
func (c *StageCtx) Tracing() bool { return c.env.Tracing() }

// Annotate stages a trace annotation for this node (see runtime.Env's
// Annotate); the combinators use it to mark stage and lane transitions.
func (c *StageCtx) Annotate(name string, value int64) { c.env.Annotate(name, value) }

// annotateStage stages the span annotation for entering a named stage with
// the given round budget. All combinators funnel through this so stage
// spans share one naming convention (obs.SpanStagePrefix + name).
func annotateStage(env *runtime.Env, name string, budget int) {
	env.Annotate(obs.SpanStagePrefix+name, int64(budget))
}

// stageTag encodes a (lane, stage) pair as an engine message tag. The marker
// bit keeps every stage tag nonzero: the engine's 0 means untagged.
func stageTag(lane uint8, stage uint16) uint32 {
	return 1<<24 | uint32(lane)<<16 | uint32(stage)
}

// splitTag decodes a stageTag.
func splitTag(tag uint32) (lane uint8, stage uint16) {
	return uint8(tag >> 16), uint16(tag)
}

// stamp tags the messages a stage returned from Send, in place.
func (c *StageCtx) stamp(outs []runtime.Out) []runtime.Out {
	for i := range outs {
		outs[i].Tag = c.tag
	}
	return outs
}

// checkInbox verifies, in place, that every message in the inbox carries
// the tag the receiving lane and stage expect.
func checkInbox(inbox []runtime.Msg, want uint32) error {
	for _, m := range inbox {
		if m.Tag == want {
			continue
		}
		if m.Tag == 0 {
			return fmt.Errorf("%w: core: untagged message from node %d", runtime.ErrProtocol, m.From)
		}
		lane, stage := splitTag(m.Tag)
		wantLane, wantStage := splitTag(want)
		return fmt.Errorf("%w: core: lockstep violation: message from node %d on lane %d stage %d, expected lane %d stage %d",
			runtime.ErrProtocol, m.From, lane, stage, wantLane, wantStage)
	}
	return nil
}
