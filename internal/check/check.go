// Package check implements distributed local verification of predicted
// solutions: constant-round algorithms in which every node outputs whether
// its own prediction is locally consistent, so that the predictions form a
// correct solution if and only if every node accepts.
//
// These are the "locally verifiable" checkers of the paper's Section 1.3
// (Göös–Suomela style), and they calibrate the consistency definition of
// Section 1.2: an algorithm with predictions is consistent when its round
// complexity with error-free predictions is within a constant of the
// checking cost below — 2 rounds for MIS and maximal matching, 1 round for
// the colorings.
package check

import (
	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/runtime"
)

// Accept and Reject are the checker outputs.
const (
	Reject = 0
	Accept = 1
)

// bitMsg carries a prediction bit or color.
type bitMsg struct{ V int }

// Bits sizes the message for CONGEST accounting.
func (bitMsg) Bits() int { return 16 }

// flagMsg carries a local deficiency flag during the second MIS round.
type flagMsg struct{ Covered bool }

// Bits sizes the message for CONGEST accounting.
func (flagMsg) Bits() int { return 1 }

// MIS returns the two-round MIS checker: round 1 exchanges prediction bits;
// a node accepts unless it predicts 1 beside a neighbor predicting 1, or it
// predicts 0 with no neighbor predicting 1.
func MIS() runtime.Factory {
	return core.Sequence(nil, core.Stage{
		Name: "check/mis",
		New: func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
			bit, _ := pred.(int)
			return &misChecker{bit: bit}
		},
	})
}

type misChecker struct {
	bit     int
	sawOne  bool
	sawSame bool
}

func (m *misChecker) Send(c *core.StageCtx) []runtime.Out {
	if c.StageRound() == 1 {
		c.Broadcast(bitMsg{V: m.bit})
		return nil
	}
	verdict := Accept
	if m.bit == 1 && m.sawSame {
		verdict = Reject // independence violated
	}
	if m.bit == 0 && !m.sawOne {
		verdict = Reject // maximality violated
	}
	if m.bit != 0 && m.bit != 1 {
		verdict = Reject
	}
	c.Output(verdict)
	return nil
}

func (m *misChecker) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	for _, msg := range inbox {
		if bm, ok := msg.Payload.(bitMsg); ok {
			if bm.V == 1 {
				m.sawOne = true
				if m.bit == 1 {
					m.sawSame = true
				}
			}
		}
	}
}

// Matching returns the two-round maximal-matching checker: nodes exchange
// predicted partners; a node accepts when its prediction is mutual (or it
// predicts ⊥ and every neighbor is mutually matched elsewhere).
func Matching() runtime.Factory {
	return core.Sequence(nil, core.Stage{
		Name: "check/matching",
		New: func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
			p, _ := pred.(int)
			return &matchChecker{pred: p, nbrPred: make(map[int]int, len(info.NeighborIDs))}
		},
	})
}

type matchChecker struct {
	pred    int
	nbrPred map[int]int
}

func (m *matchChecker) Send(c *core.StageCtx) []runtime.Out {
	if c.StageRound() == 1 {
		c.Broadcast(bitMsg{V: m.pred})
		return nil
	}
	c.Output(m.verdict(c.Info()))
	return nil
}

func (m *matchChecker) verdict(info runtime.NodeInfo) int {
	if m.pred == predict.Unmatched {
		// Maximality: every neighbor must be matched — mutually, to a node
		// that is not me.
		for _, nb := range info.NeighborIDs {
			if m.nbrPred[nb] == predict.Unmatched || m.nbrPred[nb] == info.ID {
				return Reject
			}
		}
		return Accept
	}
	// Must point at a neighbor that points back.
	if p, ok := m.nbrPred[m.pred]; ok && p == info.ID {
		return Accept
	}
	return Reject
}

func (m *matchChecker) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	for _, msg := range inbox {
		if bm, ok := msg.Payload.(bitMsg); ok {
			m.nbrPred[msg.From] = bm.V
		}
	}
}

// VColor returns the one-round-exchange (Δ+1)-coloring checker.
func VColor() runtime.Factory {
	return core.Sequence(nil, core.Stage{
		Name: "check/vcolor",
		New: func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
			p, _ := pred.(int)
			return &vcolorChecker{pred: p}
		},
	})
}

type vcolorChecker struct {
	pred int
	bad  bool
}

func (m *vcolorChecker) Send(c *core.StageCtx) []runtime.Out {
	if c.StageRound() == 1 {
		c.Broadcast(bitMsg{V: m.pred})
		return nil
	}
	if m.bad || m.pred < 1 || m.pred > c.Info().Delta+1 {
		c.Output(Reject)
	} else {
		c.Output(Accept)
	}
	return nil
}

func (m *vcolorChecker) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	for _, msg := range inbox {
		if bm, ok := msg.Payload.(bitMsg); ok && bm.V == m.pred {
			m.bad = true
		}
	}
}

// EColor returns the (2Δ−1)-edge-coloring checker: each node sends each
// neighbor the color it predicts for their shared edge; a node accepts when
// its own predictions are in range and pairwise distinct and every neighbor
// offered the same color for the shared edge.
func EColor() runtime.Factory {
	return core.Sequence(nil, core.Stage{
		Name: "check/ecolor",
		New: func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
			p, _ := pred.([]int)
			return &ecolorChecker{pred: p, nbrOffer: make(map[int]int, len(info.NeighborIDs))}
		},
	})
}

type ecolorChecker struct {
	pred     []int
	nbrOffer map[int]int
}

func (m *ecolorChecker) Send(c *core.StageCtx) []runtime.Out {
	info := c.Info()
	if c.StageRound() == 1 {
		if len(m.pred) != len(info.NeighborIDs) {
			return nil // verdict will reject
		}
		outs := make([]runtime.Out, len(info.NeighborIDs))
		for j, nb := range info.NeighborIDs {
			outs[j] = runtime.Out{To: nb, Payload: bitMsg{V: m.pred[j]}}
		}
		return outs
	}
	c.Output(m.verdict(info))
	return nil
}

func (m *ecolorChecker) verdict(info runtime.NodeInfo) int {
	palette := 2*info.Delta - 1
	if len(m.pred) != len(info.NeighborIDs) {
		return Reject
	}
	seen := make(map[int]bool, len(m.pred))
	for _, col := range m.pred {
		if col < 1 || col > palette || seen[col] {
			return Reject
		}
		seen[col] = true
	}
	for j, nb := range info.NeighborIDs {
		if offer, ok := m.nbrOffer[nb]; !ok || offer != m.pred[j] {
			return Reject
		}
	}
	return Accept
}

func (m *ecolorChecker) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	for _, msg := range inbox {
		if bm, ok := msg.Payload.(bitMsg); ok {
			m.nbrOffer[msg.From] = bm.V
		}
	}
}
