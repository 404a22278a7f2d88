package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/runtime"
)

// ParallelSpec configures the Parallel Template (paper Algorithm 5).
type ParallelSpec struct {
	// Mem creates the per-node shared memory. Part 1 of the reference stores
	// its locally held result (e.g. the node's color) here for part 2.
	Mem MemoryFactory
	// B is the reasonable initialization stage (fixed budget).
	B Stage
	// U is the measure-uniform algorithm run in parallel with part 1.
	U StageFactory
	// R1 is the fault-tolerant first part of the reference algorithm. Its
	// machines must not call Output; they record results in shared memory
	// and may Yield early (the lane then idles until the budget elapses).
	R1 StageFactory
	// R1Budget computes the known upper bound r_1(n, Δ, d) on part 1's round
	// complexity; every node runs the parallel section exactly this long. It
	// must depend only on info.N, info.D and info.Delta, which all nodes
	// share: the template computes it once per run, not once per node.
	R1Budget func(info runtime.NodeInfo) int
	// C is the optional clean-up stage (nil to skip, e.g. when the partial
	// solution at the budget boundary is always extendable).
	C *Stage
	// R2 is the second part of the reference, run to completion on the nodes
	// still active; it reads part 1's result from shared memory.
	R2 StageFactory
}

// Parallel composes the Parallel Template: after initialization, the
// measure-uniform algorithm and part 1 of the reference run simultaneously on
// separate message lanes. A node that terminates through the measure-uniform
// lane is, from the reference's point of view, crashed — part 1 must be fault
// tolerant, exactly as the paper requires. After r_1 rounds the clean-up runs
// and the survivors finish with part 2 of the reference.
func Parallel(spec ParallelSpec) runtime.Factory {
	spec.R1Budget = memoBudget(spec.R1Budget)
	return func(info runtime.NodeInfo, pred any) runtime.Machine {
		var m any
		if spec.Mem != nil {
			m = spec.Mem(info, pred)
		}
		pm := &parallelMachine{
			spec:  spec,
			info:  info,
			pred:  pred,
			mem:   m,
			b:     spec.B.New(info, pred, m),
			bCtx:  newCtx(m, planeB, 0),
			bLeft: spec.B.Budget,
			uCtx:  newCtx(m, planeU, 0),
			r1Ctx: newCtx(m, planeR, 0),
			cCtx:  newCtx(m, planeC, 0),
			r2Ctx: newCtx(m, plane2, 0),
		}
		if pm.bLeft <= 0 {
			pm.bLeft = 1
		}
		return pm
	}
}

// memoBudget caches a budget function keyed by (N, D, Δ): the first node of
// a run computes the budget and every other node reuses it. Nodes ask from
// Receive on pool workers, so the cache is an atomic pointer to an immutable
// entry; racing first calls compute the same value. A factory reused on a
// graph with other parameters recomputes once for the new key.
func memoBudget(budget func(runtime.NodeInfo) int) func(runtime.NodeInfo) int {
	type entry struct{ n, d, delta, rounds int }
	var last atomic.Pointer[entry]
	return func(info runtime.NodeInfo) int {
		if e := last.Load(); e != nil && e.n == info.N && e.d == info.D && e.delta == info.Delta {
			return e.rounds
		}
		e := &entry{n: info.N, d: info.D, delta: info.Delta, rounds: budget(info)}
		last.Store(e)
		return e.rounds
	}
}

const (
	planeB uint8 = 0
	planeU uint8 = 1
	planeR uint8 = 3
	planeC uint8 = 4
	plane2 uint8 = 5
)

type parallelMachine struct {
	spec ParallelSpec
	info runtime.NodeInfo
	pred any
	mem  any

	b     StageMachine
	bCtx  StageCtx
	bLeft int

	uMach  StageMachine
	r1Mach StageMachine
	uCtx   StageCtx
	r1Ctx  StageCtx
	r1Done bool // R1 yielded early; its lane idles
	left   int  // rounds remaining in the parallel section
	// uIn/rIn are the lanes' inboxes during the parallel section, refilled
	// from the engine's inbox each round (see splitInbox); outs merges the
	// lanes' sends when both send in one round.
	uIn, rIn []runtime.Msg
	outs     []runtime.Out

	cMach StageMachine
	cCtx  StageCtx
	cLeft int

	r2Mach StageMachine
	r2Ctx  StageCtx
}

// Section span names for the anonymous parallel-template lanes.
const (
	spanParallel = "parallel/U+R1"
	spanR2       = "parallel/R2"
)

func (m *parallelMachine) Send(env *runtime.Env) []runtime.Out {
	switch {
	case m.b != nil:
		if env.Tracing() {
			annotateStage(env, m.spec.B.Name, m.spec.B.Budget)
		}
		m.bCtx.env = env
		m.bCtx.stageRound++
		return m.bCtx.stamp(m.b.Send(&m.bCtx))
	case m.left > 0:
		if env.Tracing() {
			// The parallel section runs exactly R1's declared budget, which
			// at section entry is the full residual m.left (summaries keep
			// the first declared budget).
			annotateStage(env, spanParallel, m.left)
		}
		m.uCtx.env = env
		m.uCtx.stageRound++
		outs := m.uCtx.stamp(m.uMach.Send(&m.uCtx))
		if env.Terminated() {
			// The node leaves through the measure-uniform lane; part 1 sees
			// a crash and sends nothing further.
			return outs
		}
		if !m.r1Done {
			m.r1Ctx.env = env
			m.r1Ctx.stageRound++
			r1Outs := m.r1Ctx.stamp(m.r1Mach.Send(&m.r1Ctx))
			if env.Terminated() {
				env.Fail(fmt.Errorf("%w: core: parallel reference part 1 output at node %d", runtime.ErrProtocol, env.ID()))
				return nil
			}
			switch {
			case len(outs) == 0:
				outs = r1Outs
			case len(r1Outs) > 0:
				// Both lanes send: merge into the machine's own buffer,
				// reused across rounds, instead of growing U's slice.
				m.outs = append(append(m.outs[:0], outs...), r1Outs...)
				outs = m.outs
			}
		}
		return outs
	case m.cMach != nil:
		if env.Tracing() {
			annotateStage(env, m.spec.C.Name, m.spec.C.Budget)
		}
		m.cCtx.env = env
		m.cCtx.stageRound++
		return m.cCtx.stamp(m.cMach.Send(&m.cCtx))
	case m.r2Mach != nil:
		if env.Tracing() {
			annotateStage(env, spanR2, 0)
		}
		m.r2Ctx.env = env
		m.r2Ctx.stageRound++
		return m.r2Ctx.stamp(m.r2Mach.Send(&m.r2Ctx))
	default:
		env.Fail(fmt.Errorf("%w: core: parallel machine exhausted at node %d", runtime.ErrProtocol, env.ID()))
		return nil
	}
}

func (m *parallelMachine) Receive(env *runtime.Env, inbox []runtime.Msg) {
	switch {
	case m.b != nil:
		m.bCtx.env = env
		if err := checkInbox(inbox, m.bCtx.tag); err != nil {
			env.Fail(fmt.Errorf("%w (parallel init)", err))
			return
		}
		m.b.Receive(&m.bCtx, inbox)
		if env.Terminated() {
			return
		}
		m.bLeft--
		if m.bCtx.yielded || m.bLeft == 0 {
			m.b = nil
			m.uMach = m.spec.U(m.info, m.pred, m.mem)
			m.r1Mach = m.spec.R1(m.info, m.pred, m.mem)
			m.left = m.spec.R1Budget(m.info)
		}
	case m.left > 0:
		if err := m.splitInbox(inbox); err != nil {
			env.Fail(fmt.Errorf("%w (parallel section)", err))
			return
		}
		m.uCtx.env = env
		m.uMach.Receive(&m.uCtx, m.uIn)
		terminated := env.Terminated()
		if !m.r1Done && !terminated {
			m.r1Ctx.env = env
			m.r1Mach.Receive(&m.r1Ctx, m.rIn)
			if env.Terminated() {
				env.Fail(fmt.Errorf("%w: core: parallel reference part 1 output at node %d", runtime.ErrProtocol, env.ID()))
				return
			}
			if m.r1Ctx.yielded {
				m.r1Done = true
			}
		}
		if terminated {
			return
		}
		m.left--
		if m.left == 0 {
			m.uMach, m.r1Mach = nil, nil
			m.uIn, m.rIn, m.outs = nil, nil, nil
			if m.spec.C != nil {
				m.cMach = m.spec.C.New(m.info, m.pred, m.mem)
				m.cLeft = m.spec.C.Budget
				if m.cLeft <= 0 {
					m.cLeft = 1
				}
			} else {
				m.r2Mach = m.spec.R2(m.info, m.pred, m.mem)
			}
		}
	case m.cMach != nil:
		m.cCtx.env = env
		if err := checkInbox(inbox, m.cCtx.tag); err != nil {
			env.Fail(fmt.Errorf("%w (parallel clean-up)", err))
			return
		}
		m.cMach.Receive(&m.cCtx, inbox)
		if env.Terminated() {
			return
		}
		m.cLeft--
		if m.cCtx.yielded || m.cLeft == 0 {
			m.cMach = nil
			m.r2Mach = m.spec.R2(m.info, m.pred, m.mem)
		}
	case m.r2Mach != nil:
		m.r2Ctx.env = env
		if err := checkInbox(inbox, m.r2Ctx.tag); err != nil {
			env.Fail(fmt.Errorf("%w (parallel part 2)", err))
			return
		}
		m.r2Mach.Receive(&m.r2Ctx, inbox)
	}
}

// splitInbox separates a parallel-section inbox into the measure-uniform and
// reference-part-1 lanes, preserving order. The lane inboxes are the
// machine's own buffers, reused across rounds; the previous round's
// messages are cleared first so they pin no payloads.
func (m *parallelMachine) splitInbox(inbox []runtime.Msg) error {
	clear(m.uIn)
	clear(m.rIn)
	m.uIn, m.rIn = m.uIn[:0], m.rIn[:0]
	uTag, rTag := m.uCtx.tag, m.r1Ctx.tag
	for _, msg := range inbox {
		switch msg.Tag {
		case uTag:
			m.uIn = append(m.uIn, msg)
		case rTag:
			m.rIn = append(m.rIn, msg)
		case 0:
			return fmt.Errorf("%w: core: untagged message from node %d", runtime.ErrProtocol, msg.From)
		default:
			lane, _ := splitTag(msg.Tag)
			return fmt.Errorf("%w: core: lane %d message from node %d during parallel section", runtime.ErrProtocol, lane, msg.From)
		}
	}
	return nil
}
