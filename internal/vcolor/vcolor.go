package vcolor

import (
	"sort"

	"repro/internal/core"
	"repro/internal/runtime"
)

// Memory is the per-node shared state for (Δ+1)-Vertex Coloring with
// predictions: the node's predicted color, its neighbors' announced
// predictions, and the colors of neighbors that have terminated (which are
// precisely the colors removed from this node's palette; extendability in
// Section 8.2 is maintained by construction).
type Memory struct {
	// Pred is the node's predicted color.
	Pred int
	// NbrPred maps neighbor ID to announced prediction.
	NbrPred map[int]int
	// NbrColor maps neighbor ID to its output color; presence means the
	// neighbor has terminated.
	NbrColor map[int]int
	// Color and Palette hold the tentative color stored by reference part 1
	// in the Parallel Template.
	Color, Palette int
}

// StoreColor implements ColorStore for the Parallel Template's part 1.
func (m *Memory) StoreColor(color, palette int) { m.Color, m.Palette = color, palette }

// NewMemory is the MemoryFactory for vertex-coloring compositions.
func NewMemory(info runtime.NodeInfo, pred any) any {
	p := 0
	if v, ok := pred.(int); ok {
		p = v
	}
	return &Memory{
		Pred:     p,
		NbrPred:  make(map[int]int, len(info.NeighborIDs)),
		NbrColor: make(map[int]int, len(info.NeighborIDs)),
	}
}

// ForbiddenColors returns the colors output by terminated neighbors, sorted.
func (m *Memory) ForbiddenColors() []int {
	out := make([]int, 0, len(m.NbrColor))
	for _, c := range m.NbrColor {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// PaletteMemory is implemented by shared memories that track the colors
// removed from the node's palette by terminated neighbors; the list-aware
// reference consults it.
type PaletteMemory interface {
	ForbiddenColors() []int
}

// ActiveNeighbors returns neighbors not known to have terminated.
func (m *Memory) ActiveNeighbors(info runtime.NodeInfo) []int {
	out := make([]int, 0, len(info.NeighborIDs))
	for _, nb := range info.NeighborIDs {
		if _, gone := m.NbrColor[nb]; !gone {
			out = append(out, nb)
		}
	}
	return out
}

// colorNotify is sent just before a node terminates with its color.
type colorNotify struct{ C int }

// Bits sizes the message for CONGEST accounting.
func (colorNotify) Bits() int { return 16 }

// predColorMsg announces the node's predicted color.
type predColorMsg struct{ C int }

// Bits sizes the message for CONGEST accounting.
func (predColorMsg) Bits() int { return 16 }

func (m *Memory) recordNotifies(inbox []runtime.Msg) {
	for _, msg := range inbox {
		if cn, ok := msg.Payload.(colorNotify); ok {
			m.NbrColor[msg.From] = cn.C
		}
	}
}

// Base returns the (Δ+1)-Vertex Coloring Base Algorithm (Section 8.2): after
// exchanging predictions, a node whose prediction differs from those of all
// its neighbors informs its neighbors, outputs its predicted color, and
// terminates; every informed node removes that color from its palette.
// Two rounds.
func Base() core.Stage {
	return core.Stage{Name: "vcolor/base", Budget: 2, New: newInitLike(false)}
}

// Init returns the reasonable initialization of Section 8.2: a node outputs
// its predicted color provided all neighbors with the same prediction have
// smaller identifiers. The partial solution contains the Base Algorithm's.
func Init() core.Stage {
	return core.Stage{Name: "vcolor/init", Budget: 2, New: newInitLike(true)}
}

func newInitLike(tieBreak bool) core.StageFactory {
	return func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
		return &initMachine{mem: mem.(*Memory), tieBreak: tieBreak}
	}
}

type initMachine struct {
	mem      *Memory
	tieBreak bool
}

func (m *initMachine) Send(c *core.StageCtx) []runtime.Out {
	switch c.StageRound() {
	case 1:
		c.Broadcast(predColorMsg{C: m.mem.Pred})
		return nil
	case 2:
		if m.keepsPrediction(c.Info()) {
			c.Broadcast(colorNotify{C: m.mem.Pred})
			c.Output(m.mem.Pred)
			return nil
		}
	}
	return nil
}

func (m *initMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	switch c.StageRound() {
	case 1:
		for _, msg := range inbox {
			if pm, ok := msg.Payload.(predColorMsg); ok {
				m.mem.NbrPred[msg.From] = pm.C
			}
		}
	case 2:
		m.mem.recordNotifies(inbox)
		c.Yield()
	}
}

func (m *initMachine) keepsPrediction(info runtime.NodeInfo) bool {
	if m.mem.Pred < 1 || m.mem.Pred > info.Delta+1 {
		return false
	}
	for _, nb := range info.NeighborIDs {
		if m.mem.NbrPred[nb] != m.mem.Pred {
			continue
		}
		if !m.tieBreak || nb > info.ID {
			return false
		}
	}
	return true
}

// MeasureUniform returns the measure-uniform list-coloring algorithm of
// Section 8.2: each round, every active node whose identifier exceeds those
// of all its active neighbors picks the smallest color remaining in its
// palette, informs its active neighbors, outputs, and terminates. At least
// one node per component terminates each round, so the round complexity on a
// component with s nodes is at most s; the code consults no graph parameter,
// so the algorithm is measure-uniform with respect to μ₁. Interrupting it at
// any budget leaves an extendable partial solution (any partial proper
// coloring is extendable for this problem).
func MeasureUniform(budget int) core.Stage {
	return core.Stage{
		Name:   "vcolor/greedy",
		Budget: budget,
		New: func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
			return &greedyMachine{mem: mem.(*Memory)}
		},
	}
}

type greedyMachine struct{ mem *Memory }

func (m *greedyMachine) Send(c *core.StageCtx) []runtime.Out {
	active := m.mem.ActiveNeighbors(c.Info())
	for _, nb := range active {
		if nb > c.ID() {
			return nil
		}
	}
	color := smallestFreePalette(c.Info().Delta+1, m.mem.ForbiddenColors())
	outs := runtime.BroadcastTo(active, colorNotify{C: color})
	c.Output(color)
	return outs
}

func (m *greedyMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	m.mem.recordNotifies(inbox)
}

// smallestFreePalette returns the least color in {1, ..., palette} not in
// forbidden.
func smallestFreePalette(palette int, forbidden []int) int {
	taken := make([]bool, palette+1)
	for _, f := range forbidden {
		if f >= 1 && f <= palette {
			taken[f] = true
		}
	}
	for v := 1; v <= palette; v++ {
		if !taken[v] {
			return v
		}
	}
	return 1
}
