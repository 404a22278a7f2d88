package tree

import (
	"repro/internal/core"
	"repro/internal/runtime"
)

// notify carries a terminating node's output bit.
type notify struct{ Bit int }

// Bits sizes the message for CONGEST accounting.
func (notify) Bits() int { return 2 }

// predMsg announces the sender's prediction.
type predMsg struct{ Bit int }

// Bits sizes the message for CONGEST accounting.
func (predMsg) Bits() int { return 2 }

func notifyAndOutput(c *core.StageCtx, mem *Memory, bit int) []runtime.Out {
	outs := runtime.BroadcastTo(mem.ActiveNeighbors(c.Info()), notify{Bit: bit})
	c.Output(bit)
	return outs
}

func record(mem *Memory, inbox []runtime.Msg) (gotOne bool) {
	for _, msg := range inbox {
		if nt, ok := msg.Payload.(notify); ok {
			mem.NbrOut[msg.From] = nt.Bit
			if nt.Bit == 1 {
				gotOne = true
			}
		}
	}
	return gotOne
}

// Init returns the MIS Rooted Tree Initialization Algorithm (Section 9.2):
// round 1 exchanges predictions; round 2 the black nodes without a black
// parent join the independent set; round 3 the nodes notified in round 2
// leave, and the white nodes that were not notified and have no white parent
// join; round 4 the nodes notified in round 3 leave. Afterwards the active
// components are monochromatic. Terminates in 3 rounds when the predictions
// are correct.
func Init() core.Stage {
	return core.Stage{
		Name:   "tree/init",
		Budget: 4,
		New: func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
			return &initMachine{mem: mem.(*Memory)}
		},
	}
}

type initMachine struct {
	mem     *Memory
	gotOne2 bool // notified with 1 during round 2
	gotOne3 bool // notified with 1 during round 3
}

func (m *initMachine) Send(c *core.StageCtx) []runtime.Out {
	mem := m.mem
	switch c.StageRound() {
	case 1:
		c.Broadcast(predMsg{Bit: mem.Pred})
		return nil
	case 2:
		if mem.Pred == 1 && !m.blackParent() {
			return notifyAndOutput(c, mem, 1)
		}
	case 3:
		if m.gotOne2 {
			return notifyAndOutput(c, mem, 0)
		}
		if mem.Pred == 0 && !m.whiteParent() {
			return notifyAndOutput(c, mem, 1)
		}
	case 4:
		if m.gotOne3 {
			return notifyAndOutput(c, mem, 0)
		}
	}
	return nil
}

func (m *initMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	switch c.StageRound() {
	case 1:
		for _, msg := range inbox {
			if pm, ok := msg.Payload.(predMsg); ok {
				m.mem.NbrPred[msg.From] = pm.Bit
			}
		}
	case 2:
		m.gotOne2 = record(m.mem, inbox)
	case 3:
		m.gotOne3 = record(m.mem, inbox)
	case 4:
		record(m.mem, inbox)
		c.Yield()
	}
}

func (m *initMachine) blackParent() bool {
	return m.mem.ParentID != 0 && m.mem.NbrPred[m.mem.ParentID] == 1
}

func (m *initMachine) whiteParent() bool {
	return m.mem.ParentID != 0 && m.mem.NbrPred[m.mem.ParentID] == 0
}

// RootsAndLeaves returns the measure-uniform rooted-tree MIS algorithm
// (paper Algorithm 6), in 2-round groups: in each odd round, every component
// root (no active parent) joins the independent set and notifies its active
// children, while every leaf (no active children) announces itself to its
// parent and then joins unless its parent just joined; in the even round,
// every node notified in the odd round leaves. Interrupting at even budgets
// leaves an extendable partial solution. The round complexity is at most
// ⌈η_t/2⌉+O(1) after the tree initialization.
func RootsAndLeaves(budget int) core.Stage {
	return core.Stage{
		Name:   "tree/roots-leaves",
		Budget: budget,
		New: func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
			return &rootsLeavesMachine{mem: mem.(*Memory)}
		},
	}
}

// rootMsg announces that the sender joined as a component root.
type rootMsg struct{}

// Bits sizes the message for CONGEST accounting.
func (rootMsg) Bits() int { return 1 }

// leafMsg announces that the sender is a leaf about to join.
type leafMsg struct{}

// Bits sizes the message for CONGEST accounting.
func (leafMsg) Bits() int { return 1 }

type rootsLeavesMachine struct {
	mem     *Memory
	gotMsg  bool // received any odd-round message: must leave
	wasLeaf bool // sent a leaf announcement this group
}

func (m *rootsLeavesMachine) Send(c *core.StageCtx) []runtime.Out {
	mem := m.mem
	if c.StageRound()%2 == 1 {
		m.wasLeaf = false
		if !mem.ParentActive() {
			outs := runtime.BroadcastTo(mem.ActiveChildren(c.Info()), rootMsg{})
			c.Output(1)
			return outs
		}
		if len(mem.ActiveChildren(c.Info())) == 0 {
			m.wasLeaf = true
			return []runtime.Out{{To: mem.ParentID, Payload: leafMsg{}}}
		}
		return nil
	}
	if m.gotMsg {
		return notifyAndOutput(c, mem, 0)
	}
	return nil
}

func (m *rootsLeavesMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	if c.StageRound()%2 == 1 {
		parentIsRoot := false
		for _, msg := range inbox {
			switch msg.Payload.(type) {
			case rootMsg:
				m.mem.NbrOut[msg.From] = 1
				if msg.From == m.mem.ParentID {
					parentIsRoot = true
				}
				m.gotMsg = true
			case leafMsg:
				m.gotMsg = true
			}
		}
		if m.wasLeaf {
			if parentIsRoot {
				c.Output(0)
			} else {
				c.Output(1)
			}
		}
		return
	}
	record(m.mem, inbox)
}

// Cleanup returns the one-round rooted-tree MIS clean-up: active nodes with
// an in-set neighbor leave, making the partial solution extendable after an
// interruption at an odd boundary.
func Cleanup() core.Stage {
	return core.Stage{
		Name:   "tree/cleanup",
		Budget: 1,
		New: func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
			return &treeCleanupMachine{mem: mem.(*Memory)}
		},
	}
}

type treeCleanupMachine struct{ mem *Memory }

func (m *treeCleanupMachine) Send(c *core.StageCtx) []runtime.Out {
	for _, bit := range m.mem.NbrOut {
		if bit == 1 {
			return notifyAndOutput(c, m.mem, 0)
		}
	}
	return nil
}

func (m *treeCleanupMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	record(m.mem, inbox)
	c.Yield()
}

// Solo runs a single rooted-tree stage as a complete algorithm on r.
func Solo(r *Rooted, stage core.Stage) runtime.Factory {
	return core.Sequence(NewMemory(r), stage)
}

// ConsecutiveColoring is the Consecutive Template on rooted trees: the
// rooted-tree initialization, Algorithm 6 for the reference's round bound
// (rounded to even so the interruption point is extendable), the one-round
// clean-up, then the GPS 3-coloring and its two-round conversion run as two
// sequential reference stages.
func ConsecutiveColoring(r *Rooted) runtime.Factory {
	cleanup := Cleanup()
	return core.Consecutive(core.ConsecutiveSpec{
		Mem:    NewMemory(r),
		B:      Init(),
		U:      RootsAndLeaves,
		Budget: func(info runtime.NodeInfo) int { return CVRounds(info.D) + 2 + 1 },
		Align:  2,
		C:      &cleanup,
		Ref: func(info runtime.NodeInfo) []core.Stage {
			return []core.Stage{
				{Name: "tree/cv", Budget: CVRounds(info.D), New: ColoringPart1()},
				{Name: "tree/conv", New: MISFrom3Coloring()},
			}
		},
	})
}

// SimpleRootsLeaves is the Simple Template on rooted trees: the rooted-tree
// initialization followed by Algorithm 6; round complexity at most
// ⌈η_t/2⌉+5 (Section 9.2).
func SimpleRootsLeaves(r *Rooted) runtime.Factory {
	return core.Simple(NewMemory(r), Init(), RootsAndLeaves(0))
}
