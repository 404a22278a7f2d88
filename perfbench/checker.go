package main

import (
	"fmt"

	"repro"
)

// checker validates op outputs independently of the library's own verifiers:
// it shares no code with internal/verify, internal/check or the problem
// descriptors' Finalize. Every check is O(n+m) over tables built once per
// graph by newChecker, outside any timed region.
type checker struct {
	g      *repro.Graph
	off    []int32 // CSR offsets
	adj    []int32 // CSR neighbor indices
	index  []int32 // identifier -> node index, -1 for unused identifiers
	maxDeg int

	// Edge tables (filled by withEdges): for node v, incEdge[incOff[v]:incOff[v+1]]
	// are the indices (into g.Edges()) of v's incident edges ordered by the
	// neighbor's identifier, the order edge-color predictions use.
	incOff  []int32
	incEdge []int32
}

func newChecker(g *repro.Graph) *checker {
	off, adj := g.CSR()
	c := &checker{g: g, off: off, adj: adj, index: make([]int32, g.D()+1), maxDeg: g.MaxDegree()}
	for i := range c.index {
		c.index[i] = -1
	}
	for v := 0; v < g.N(); v++ {
		c.index[g.ID(v)] = int32(v)
	}
	return c
}

// withEdges adds the per-node incident-edge tables edge coloring needs.
func (c *checker) withEdges() *checker {
	g := c.g
	idx := g.EdgeIndex()
	c.incOff = make([]int32, g.N()+1)
	c.incEdge = make([]int32, 0, 2*g.M())
	for v := 0; v < g.N(); v++ {
		for _, u := range g.NeighborsByID(v) {
			a, b := v, u
			if a > b {
				a, b = b, a
			}
			c.incEdge = append(c.incEdge, int32(idx[[2]int{a, b}]))
		}
		c.incOff[v+1] = int32(len(c.incEdge))
	}
	return c
}

// check validates a problem's output: out for the node-output problems,
// edge for edge coloring.
func (c *checker) check(problem string, out, edge []int) error {
	switch problem {
	case "mis", "tree":
		return c.mis(out)
	case "matching":
		return c.matching(out)
	case "vcolor":
		return c.vcolor(out)
	case "ecolor":
		return c.ecolor(edge)
	}
	return fmt.Errorf("checker: unknown problem %q", problem)
}

func (c *checker) nodes(out []int) error {
	if len(out) != c.g.N() {
		return fmt.Errorf("checker: %d outputs for %d nodes", len(out), c.g.N())
	}
	return nil
}

// mis accepts a maximal independent set given as 0/1 membership bits.
func (c *checker) mis(out []int) error {
	if err := c.nodes(out); err != nil {
		return err
	}
	for v, x := range out {
		if x != 0 && x != 1 {
			return fmt.Errorf("checker: mis: node %d has output %d", v, x)
		}
		dominated := x == 1
		for _, u := range c.adj[c.off[v]:c.off[v+1]] {
			if out[u] == 1 {
				if x == 1 {
					return fmt.Errorf("checker: mis: adjacent nodes %d and %d both in the set", v, u)
				}
				dominated = true
			}
		}
		if !dominated {
			return fmt.Errorf("checker: mis: node %d is out of the set with no neighbor in it", v)
		}
	}
	return nil
}

// matching accepts a symmetric maximal matching given as partner
// identifiers, 0 for unmatched.
func (c *checker) matching(out []int) error {
	if err := c.nodes(out); err != nil {
		return err
	}
	for v, p := range out {
		if p == 0 {
			for _, u := range c.adj[c.off[v]:c.off[v+1]] {
				if out[u] == 0 {
					return fmt.Errorf("checker: matching: adjacent nodes %d and %d both unmatched", v, u)
				}
			}
			continue
		}
		if p < 0 || p >= len(c.index) || c.index[p] < 0 {
			return fmt.Errorf("checker: matching: node %d matched to unknown identifier %d", v, p)
		}
		u := c.index[p]
		adjacent := false
		for _, w := range c.adj[c.off[v]:c.off[v+1]] {
			if w == u {
				adjacent = true
				break
			}
		}
		if !adjacent {
			return fmt.Errorf("checker: matching: node %d matched to non-neighbor %d", v, u)
		}
		if out[u] != c.g.ID(v) {
			return fmt.Errorf("checker: matching: node %d matched to %d, which is matched to identifier %d", v, u, out[u])
		}
	}
	return nil
}

// vcolor accepts a proper vertex coloring with colors in [1, Δ+1].
func (c *checker) vcolor(out []int) error {
	if err := c.nodes(out); err != nil {
		return err
	}
	for v, x := range out {
		if x < 1 || x > c.maxDeg+1 {
			return fmt.Errorf("checker: vcolor: node %d has color %d outside [1,%d]", v, x, c.maxDeg+1)
		}
		for _, u := range c.adj[c.off[v]:c.off[v+1]] {
			if out[u] == x {
				return fmt.Errorf("checker: vcolor: adjacent nodes %d and %d share color %d", v, u, x)
			}
		}
	}
	return nil
}

// ecolor accepts a proper edge coloring (indexed like g.Edges()) with colors
// in [1, 2Δ-1].
func (c *checker) ecolor(colors []int) error {
	if len(colors) != c.g.M() {
		return fmt.Errorf("checker: ecolor: %d colors for %d edges", len(colors), c.g.M())
	}
	palette := 2*c.maxDeg - 1
	for e, x := range colors {
		if x < 1 || x > palette {
			return fmt.Errorf("checker: ecolor: edge %d has color %d outside [1,%d]", e, x, palette)
		}
	}
	// seenAt[x] holds 1 + the last node that saw color x on an incident edge.
	seenAt := make([]int32, palette+1)
	for v := 0; v < c.g.N(); v++ {
		for _, e := range c.incEdge[c.incOff[v]:c.incOff[v+1]] {
			x := colors[e]
			if seenAt[x] == int32(v+1) {
				return fmt.Errorf("checker: ecolor: node %d has two edges with color %d", v, x)
			}
			seenAt[x] = int32(v + 1)
		}
	}
	return nil
}

// changedFromPreds counts the nodes whose output differs from the
// prediction the op started from: the op's recourse.
func (c *checker) changedFromPreds(preds any, out, edge []int) int {
	changed := 0
	switch p := preds.(type) {
	case []int:
		for v := range out {
			if out[v] != p[v] {
				changed++
			}
		}
	case []repro.EdgePrediction:
		for v := range p {
			for j, e := range c.incEdge[c.incOff[v]:c.incOff[v+1]] {
				if j >= len(p[v]) || p[v][j] != edge[e] {
					changed++
					break
				}
			}
		}
	}
	return changed
}
