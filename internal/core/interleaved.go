package core

import (
	"fmt"

	"repro/internal/runtime"
)

// PhaseSchedule returns the per-phase round budgets r_1, ..., r_m that every
// node can compute from its static information (paper Section 7.3). The
// Interleaved combinator runs r_i rounds of the measure-uniform lane followed
// by r_i rounds of the reference lane for each phase i.
type PhaseSchedule func(info runtime.NodeInfo) []int

// Interleaved composes the Interleaved Template (paper Algorithm 4): a
// reasonable initialization stage B, then alternating slices of a
// measure-uniform algorithm U and a phase-decomposed reference algorithm R.
//
// Both U and R must leave an extendable partial solution at the end of every
// slice (for the algorithms in this repository this holds when every r_i is
// even, matching the paper's choice). If a node is still active after the
// schedule is exhausted, the combinator keeps running the reference lane, so
// a reference whose true round complexity exceeds its declared schedule still
// terminates; the overshoot is visible in the round count.
func Interleaved(mem MemoryFactory, b Stage, u StageFactory, r StageFactory, sched PhaseSchedule) runtime.Factory {
	return func(info runtime.NodeInfo, pred any) runtime.Machine {
		var m any
		if mem != nil {
			m = mem(info, pred)
		}
		im := &interleavedMachine{
			info:    info,
			pred:    pred,
			mem:     m,
			b:       b.New(info, pred, m),
			bName:   b.Name,
			bBudget: b.Budget,
			bCtx:    newCtx(m, laneInit, 0),
			bLeft:   b.Budget,
			u:       u,
			r:       r,
			sched:   sched(info),
			uCtx:    newCtx(m, laneU, 0),
			rCtx:    newCtx(m, laneR, 0),
		}
		if im.bLeft <= 0 {
			im.bLeft = 1
		}
		return im
	}
}

const (
	laneInit uint8 = 0
	laneU    uint8 = 1
	laneR    uint8 = 2
)

// Lane span names: the interleaved lanes are anonymous StageFactories, so
// their trace spans carry fixed combinator-level names.
const (
	spanLaneU = "interleave/U"
	spanLaneR = "interleave/R"
)

type interleavedMachine struct {
	info runtime.NodeInfo
	pred any
	mem  any

	// Initialization stage.
	b       StageMachine
	bName   string
	bBudget int
	bCtx    StageCtx
	bLeft   int

	// Lane machines, created lazily when initialization completes.
	u, r         StageFactory
	uMach, rMach StageMachine
	uCtx, rCtx   StageCtx
	uDone        bool // U yielded; its lane idles thereafter

	sched []int
	// pos counts rounds since the interleaving started (0-based).
	pos int
	// curLane caches the lane chosen in Send for the matching Receive.
	curLane uint8
}

// laneAt maps an interleaving round index to the lane scheduled for it:
// phase i contributes sched[i] rounds of U then sched[i] rounds of R; past
// the schedule, the reference lane runs every round.
func (m *interleavedMachine) laneAt(pos int) uint8 {
	for _, ri := range m.sched {
		if pos < ri {
			return laneU
		}
		pos -= ri
		if pos < ri {
			return laneR
		}
		pos -= ri
	}
	return laneR
}

func (m *interleavedMachine) Send(env *runtime.Env) []runtime.Out {
	if m.b != nil {
		if env.Tracing() {
			annotateStage(env, m.bName, m.bBudget)
		}
		m.bCtx.env = env
		m.bCtx.stageRound++
		return m.bCtx.stamp(m.b.Send(&m.bCtx))
	}
	m.curLane = m.laneAt(m.pos)
	if env.Tracing() {
		if m.curLane == laneU {
			annotateStage(env, spanLaneU, 0)
		} else {
			annotateStage(env, spanLaneR, 0)
		}
	}
	if m.curLane == laneU {
		if m.uDone {
			return nil
		}
		m.uCtx.env = env
		m.uCtx.stageRound++
		return m.uCtx.stamp(m.uMach.Send(&m.uCtx))
	}
	m.rCtx.env = env
	m.rCtx.stageRound++
	return m.rCtx.stamp(m.rMach.Send(&m.rCtx))
}

func (m *interleavedMachine) Receive(env *runtime.Env, inbox []runtime.Msg) {
	if m.b != nil {
		m.bCtx.env = env
		if err := checkInbox(inbox, m.bCtx.tag); err != nil {
			env.Fail(fmt.Errorf("%w (interleaved init)", err))
			return
		}
		m.b.Receive(&m.bCtx, inbox)
		if env.Terminated() {
			return
		}
		m.bLeft--
		if m.bCtx.yielded || m.bLeft == 0 {
			m.b = nil
			m.uMach = m.u(m.info, m.pred, m.mem)
			m.rMach = m.r(m.info, m.pred, m.mem)
		}
		return
	}
	if err := checkInbox(inbox, stageTag(m.curLane, 0)); err != nil {
		env.Fail(fmt.Errorf("%w (interleaved lane %d)", err, m.curLane))
		return
	}
	if m.curLane == laneU {
		if !m.uDone {
			m.uCtx.env = env
			m.uMach.Receive(&m.uCtx, inbox)
			if m.uCtx.yielded {
				m.uDone = true
			}
		}
	} else {
		m.rCtx.env = env
		m.rMach.Receive(&m.rCtx, inbox)
		if m.rCtx.yielded && !env.Terminated() {
			env.Fail(fmt.Errorf("%w: core: interleaved reference yielded without output at node %d", runtime.ErrProtocol, env.ID()))
			return
		}
	}
	if !env.Terminated() {
		m.pos++
	}
}
