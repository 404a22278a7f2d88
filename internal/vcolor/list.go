package vcolor

import (
	"repro/internal/core"
	"repro/internal/runtime"
)

// RoundsList returns the round bound of LinialList: the plain Linial bound
// plus Δ+1 palette-repair rounds.
func RoundsList(d, delta int) int {
	return Rounds(d, delta) + delta + 1
}

// LinialList returns the list-aware coloring reference used as R in the
// vertex-coloring templates. It first runs the Linial algorithm to a proper
// (Δ+1)-coloring of the still-active subgraph, then spends Δ+1 repair rounds
// — one per color class — recoloring any node whose color collides with a
// color already output by a terminated neighbor (recorded in the shared
// memory's palette). Each active node's palette is larger than its total
// number of constraints, so a free color always exists, and a color class is
// an independent set, so simultaneous repairs never conflict. All nodes
// output in round RoundsList(d, Δ).
func LinialList() core.Stage {
	return core.Stage{
		Name: "vcolor/linial-list",
		New: func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
			steps, kStar := Schedule(info.D, info.Delta)
			color := info.ID - 1
			if info.Delta == 0 {
				color = 0
			}
			return &listMachine{
				steps: steps,
				kStar: kStar,
				base:  Rounds(info.D, info.Delta),
				total: RoundsList(info.D, info.Delta),
				color: color,
			}
		},
	}
}

type listMachine struct {
	steps       []ReductionStep
	kStar       int
	base, total int
	color       int // 0-based
}

func (m *listMachine) Send(c *core.StageCtx) []runtime.Out {
	c.Broadcast(colorMsg{C: m.color})
	return nil
}

func (m *listMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	heard := make([]int, 0, len(inbox))
	for _, msg := range inbox {
		if cm, ok := msg.Payload.(colorMsg); ok {
			heard = append(heard, cm.C)
		}
	}
	delta := c.Info().Delta
	r := c.StageRound()
	switch {
	case r <= len(m.steps):
		m.color = reduceColor(m.steps[r-1], m.color, heard)
	case r <= m.base:
		target := m.kStar - (r - len(m.steps))
		if m.color == target && target > delta {
			m.color = smallestFree(heard, delta+1)
		}
	default:
		// Repair round j handles color class Δ+1-j (0-based: delta+1-j).
		j := r - m.base
		target := delta + 1 - j
		forbidden := m.forbidden(c)
		if m.color == target && forbidden[m.color] {
			m.color = m.freeColor(heard, forbidden, delta+1)
		}
	}
	if r >= m.total {
		c.Output(m.color + 1)
	}
}

// forbidden returns, as a 0-based lookup, the colors output by terminated
// neighbors according to the shared memory (empty when the memory does not
// track palettes).
func (m *listMachine) forbidden(c *core.StageCtx) []bool {
	delta := c.Info().Delta
	out := make([]bool, delta+1)
	pm, ok := c.Memory().(PaletteMemory)
	if !ok {
		return out
	}
	for _, col := range pm.ForbiddenColors() {
		if col >= 1 && col <= delta+1 {
			out[col-1] = true
		}
	}
	return out
}

// freeColor returns the least 0-based color < palette avoiding both the
// heard colors and the forbidden set.
func (m *listMachine) freeColor(heard []int, forbidden []bool, palette int) int {
	taken := make([]bool, palette)
	copy(taken, forbidden)
	for _, h := range heard {
		if h >= 0 && h < palette {
			taken[h] = true
		}
	}
	for v := 0; v < palette; v++ {
		if !taken[v] {
			return v
		}
	}
	return 0
}
