package predict

import (
	"math/rand"

	"repro/internal/exact"
	"repro/internal/graph"
)

// PerfectMIS returns an error-free MIS prediction for g: the canonical
// greedy-by-identifier maximal independent set.
func PerfectMIS(g *graph.Graph) []int {
	return exact.GreedyMISByID(g)
}

// FlipBits returns a copy of pred with k distinct random positions flipped
// (0↔1).
func FlipBits(pred []int, k int, rng *rand.Rand) []int {
	out := make([]int, len(pred))
	copy(out, pred)
	perm := rng.Perm(len(pred))
	if k > len(pred) {
		k = len(pred)
	}
	for i := 0; i < k; i++ {
		out[perm[i]] ^= 1
	}
	return out
}

// FlipProb returns a copy of pred with each bit flipped independently with
// probability p.
func FlipProb(pred []int, p float64, rng *rand.Rand) []int {
	out := make([]int, len(pred))
	copy(out, pred)
	for i := range out {
		if rng.Float64() < p {
			out[i] ^= 1
		}
	}
	return out
}

// Uniform returns a prediction vector of n copies of v.
func Uniform(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// GridBW returns the Figure 2 prediction pattern on a rows×cols grid
// (node (i, j) has index i*cols+j): prediction 1 ("black") exactly when
// i mod 4 and j mod 4 are both in {0, 1} or both in {2, 3}.
func GridBW(rows, cols int) []int {
	pred := make([]int, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			a := i%4 <= 1
			b := j%4 <= 1
			if a == b {
				pred[i*cols+j] = 1
			}
		}
	}
	return pred
}

// WheelCenterOne returns the Figure 1 prediction on graph.WheelFk(k): the hub
// has prediction 1 and every other node 0, making the rim cycle an error
// component of diameter ⌊k/2⌋ in a graph of diameter 4.
func WheelCenterOne(k int) []int {
	pred := make([]int, 2*k+1)
	pred[0] = 1
	return pred
}

// Mod3Line returns the Section 9.2 prediction on a rooted directed line of
// 3k nodes (node i's parent is node i−1; node 0 is the root): prediction 0
// ("white") at distance 0 mod 3 from the root, prediction 1 otherwise.
func Mod3Line(k int) []int {
	pred := make([]int, 3*k)
	for i := range pred {
		if i%3 != 0 {
			pred[i] = 1
		}
	}
	return pred
}

// MISFromRelatedGraph solves MIS on oldG and transfers the outputs to g by
// identifier, defaulting to 0 for identifiers absent from oldG. This is the
// paper's Section 1.1 motivation: a solution computed on one network reused
// as predictions on a related one.
func MISFromRelatedGraph(g, oldG *graph.Graph) []int {
	oldOut := exact.GreedyMISByID(oldG)
	byID := make(map[int]int, oldG.N())
	for i := 0; i < oldG.N(); i++ {
		byID[oldG.ID(i)] = oldOut[i]
	}
	pred := make([]int, g.N())
	for i := 0; i < g.N(); i++ {
		pred[i] = byID[g.ID(i)]
	}
	return pred
}

// PerfectMatching returns an error-free maximal-matching prediction: a
// greedy-by-identifier maximal matching, encoded as partner identifiers with
// Unmatched (0) for unmatched nodes.
func PerfectMatching(g *graph.Graph) []int {
	return exact.GreedyMatchingByID(g)
}

// PerturbMatching rewires k random nodes' matching predictions: each selected
// node's prediction is replaced by a random neighbor's identifier or
// Unmatched.
func PerturbMatching(g *graph.Graph, pred []int, k int, rng *rand.Rand) []int {
	out := make([]int, len(pred))
	copy(out, pred)
	perm := rng.Perm(len(pred))
	if k > len(pred) {
		k = len(pred)
	}
	for i := 0; i < k; i++ {
		v := perm[i]
		nbrs := g.Neighbors(v)
		choice := rng.Intn(len(nbrs) + 1)
		if choice == len(nbrs) {
			out[v] = Unmatched
		} else {
			out[v] = g.ID(int(nbrs[choice]))
		}
	}
	return out
}

// PerfectVColor returns an error-free (Δ+1)-coloring prediction via greedy
// coloring in ascending identifier order.
func PerfectVColor(g *graph.Graph) []int {
	palette := g.MaxDegree() + 1
	colors := make([]int, g.N())
	for _, v := range g.IndicesByID() {
		used := make(map[int]bool, g.Degree(v))
		for _, u := range g.Neighbors(v) {
			if colors[u] != 0 {
				used[colors[u]] = true
			}
		}
		for c := 1; c <= palette; c++ {
			if !used[c] {
				colors[v] = c
				break
			}
		}
	}
	return colors
}

// PerturbVColor re-randomizes the color predictions of k random nodes within
// the (Δ+1)-palette.
func PerturbVColor(g *graph.Graph, pred []int, k int, rng *rand.Rand) []int {
	palette := g.MaxDegree() + 1
	out := make([]int, len(pred))
	copy(out, pred)
	perm := rng.Perm(len(pred))
	if k > len(pred) {
		k = len(pred)
	}
	for i := 0; i < k; i++ {
		out[perm[i]] = 1 + rng.Intn(palette)
	}
	return out
}

// PerfectEColor returns an error-free (2Δ−1)-edge-coloring prediction via
// greedy coloring of edges in g.Edges() order, expressed per node.
func PerfectEColor(g *graph.Graph) []EdgePrediction {
	colors := make([]int, g.M())
	palette := 2*g.MaxDegree() - 1
	incident := make([][]int, g.N())
	for e, ends := range g.Edges() {
		incident[ends[0]] = append(incident[ends[0]], e)
		incident[ends[1]] = append(incident[ends[1]], e)
	}
	for e, ends := range g.Edges() {
		used := make(map[int]bool)
		for _, f := range incident[ends[0]] {
			if colors[f] != 0 {
				used[colors[f]] = true
			}
		}
		for _, f := range incident[ends[1]] {
			if colors[f] != 0 {
				used[colors[f]] = true
			}
		}
		for c := 1; c <= palette; c++ {
			if !used[c] {
				colors[e] = c
				break
			}
		}
	}
	return edgeColorsToPredictions(g, colors)
}

// edgeColorsToPredictions distributes per-edge colors to the two incident
// nodes' prediction vectors (ascending-identifier neighbor order).
func edgeColorsToPredictions(g *graph.Graph, colors []int) []EdgePrediction {
	idx := g.EdgeIndex()
	preds := make([]EdgePrediction, g.N())
	for v := 0; v < g.N(); v++ {
		nbrs := g.NeighborsByID(v)
		preds[v] = make(EdgePrediction, len(nbrs))
		for j, u := range nbrs {
			a, b := v, u
			if a > b {
				a, b = b, a
			}
			preds[v][j] = colors[idx[[2]int{a, b}]]
		}
	}
	return preds
}

// PerturbEColor re-randomizes the predicted colors of k random edges (both
// endpoints see the same new color, as a predictor based on a stale edge
// coloring would produce).
func PerturbEColor(g *graph.Graph, pred []EdgePrediction, k int, rng *rand.Rand) []EdgePrediction {
	palette := 2*g.MaxDegree() - 1
	colors := make([]int, g.M())
	idx := g.EdgeIndex()
	for v := 0; v < g.N(); v++ {
		for j, u := range g.NeighborsByID(v) {
			if v < u {
				colors[idx[[2]int{v, u}]] = pred[v][j]
			}
		}
	}
	perm := rng.Perm(g.M())
	if k > g.M() {
		k = g.M()
	}
	for i := 0; i < k; i++ {
		colors[perm[i]] = 1 + rng.Intn(palette)
	}
	return edgeColorsToPredictions(g, colors)
}
