package graph

import (
	"fmt"
	"math/rand"
	"sort"
)

// mustFromEdges is FromEdges for generators whose inputs are valid by
// construction.
func mustFromEdges(n int, ids []int, domain int, edges [][2]int) *Graph {
	g, err := FromEdges(n, ids, domain, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Line returns a path with n nodes 0-1-2-...-(n-1), identifiers 1..n.
func Line(n int) *Graph {
	edges := make([][2]int, 0, n)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return mustFromEdges(n, nil, 0, edges)
}

// LineWithIDs returns a path whose node at position i has identifier ids[i].
// Used by the Ramsey-style lower-bound demonstrations, which need control
// over the identifier sequence along the line.
func LineWithIDs(ids []int) *Graph {
	b := NewBuilder(len(ids))
	for i, id := range ids {
		b.SetID(i, id)
	}
	for i := 0; i+1 < len(ids); i++ {
		b.AddEdge(i, i+1)
	}
	return b.MustBuild()
}

// Ring returns a cycle with n >= 3 nodes.
func Ring(n int) *Graph {
	edges := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	return mustFromEdges(n, nil, 0, edges)
}

// Star returns a star with one center (index 0) and n-1 leaves.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
	}
	return b.MustBuild()
}

// Clique returns the complete graph on n nodes.
func Clique(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.MustBuild()
}

// CompleteBipartite returns K_{a,b}: indices 0..a-1 on one side,
// a..a+b-1 on the other.
func CompleteBipartite(a, b int) *Graph {
	bld := NewBuilder(a + b)
	for i := 0; i < a; i++ {
		for j := a; j < a+b; j++ {
			bld.AddEdge(i, j)
		}
	}
	return bld.MustBuild()
}

// Grid2D returns the rows x cols grid graph. Node (r, c) has index r*cols+c.
func Grid2D(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	idx := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(idx(r, c), idx(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(idx(r, c), idx(r+1, c))
			}
		}
	}
	return b.MustBuild()
}

// WheelFk returns the paper's graph F_k (Figure 1): a wheel with k rim nodes
// and one extra node on each spoke. Index 0 is the hub; indices 1..k are the
// spoke midpoints; indices k+1..2k are the rim nodes. The rim node i is
// connected to rim node i+1 (mod k) and to spoke midpoint i, which is
// connected to the hub. Total 2k+1 nodes; diameter 4; the rim induces a cycle
// of diameter floor(k/2).
func WheelFk(k int) *Graph {
	b := NewBuilder(2*k + 1)
	for i := 0; i < k; i++ {
		spoke := 1 + i
		rim := 1 + k + i
		b.AddEdge(0, spoke)
		b.AddEdge(spoke, rim)
		b.AddEdge(rim, 1+k+(i+1)%k)
	}
	return b.MustBuild()
}

// RimNodes returns the node indices of the rim cycle of WheelFk(k).
func RimNodes(k int) []int {
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = 1 + k + i
	}
	return out
}

// GNP returns an Erdős–Rényi random graph G(n, p) using rng.
func GNP(n int, p float64, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(i, j)
			}
		}
	}
	return b.MustBuild()
}

// RandomTree returns a uniformly random labelled tree on n nodes via a random
// Prüfer sequence.
func RandomTree(n int, rng *rand.Rand) *Graph {
	if n == 1 {
		return NewBuilder(1).MustBuild()
	}
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = rng.Intn(n)
	}
	deg := make([]int, n) // 1 + remaining occurrences in the sequence
	for i := range deg {
		deg[i] = 1
	}
	for _, v := range prufer {
		deg[v]++
	}
	// Linear-time decoding: each step joins the smallest remaining leaf to
	// the next sequence entry. ptr only moves forward over leaves; an entry
	// that becomes a leaf below ptr is the smallest leaf and is taken next.
	edges := make([][2]int, 0, n-1)
	ptr := 0
	for deg[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, v := range prufer {
		edges = append(edges, [2]int{leaf, v})
		deg[v]--
		if deg[v] == 1 && v < ptr {
			leaf = v
			continue
		}
		ptr++
		for deg[ptr] != 1 {
			ptr++
		}
		leaf = ptr
	}
	edges = append(edges, [2]int{leaf, n - 1})
	return mustFromEdges(n, nil, 0, edges)
}

// Caterpillar returns a caterpillar tree: a spine path of length spine with
// legs pendant leaves attached to every spine node.
func Caterpillar(spine, legs int) *Graph {
	n := spine + spine*legs
	b := NewBuilder(n)
	for i := 0; i+1 < spine; i++ {
		b.AddEdge(i, i+1)
	}
	next := spine
	for i := 0; i < spine; i++ {
		for l := 0; l < legs; l++ {
			b.AddEdge(i, next)
			next++
		}
	}
	return b.MustBuild()
}

// Hypercube returns the dim-dimensional hypercube graph on 2^dim nodes.
func Hypercube(dim int) *Graph {
	n := 1 << dim
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for bit := 0; bit < dim; bit++ {
			v := u ^ (1 << bit)
			if v > u {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

// DisjointPaths returns count disjoint paths, each with pathLen nodes.
// Path p occupies indices [p*pathLen, (p+1)*pathLen). Used by the Section 10
// Luby experiment.
func DisjointPaths(count, pathLen int) *Graph {
	edges := make([][2]int, 0, count*pathLen)
	for p := 0; p < count; p++ {
		base := p * pathLen
		for i := 0; i+1 < pathLen; i++ {
			edges = append(edges, [2]int{base + i, base + i + 1})
		}
	}
	return mustFromEdges(count*pathLen, nil, 0, edges)
}

// BarabasiAlbert returns a preferential-attachment random graph: starting
// from a small clique, each new node attaches m edges to existing nodes with
// probability proportional to their degree. Produces the heavy-tailed degree
// distributions typical of real networks, used by the churn experiments.
func BarabasiAlbert(n, m int, rng *rand.Rand) *Graph {
	if m < 1 {
		m = 1
	}
	if n < m+1 {
		n = m + 1
	}
	// Flat edge-list construction: no Builder map, so million-node instances
	// build in seconds. The rng draw sequence is pinned — one Intn per
	// attachment attempt, retrying duplicates — and matches the original
	// map-based implementation draw for draw, so seeded instances (and the
	// golden tables derived from them) are unchanged.
	seedEdges := m * (m + 1) / 2
	edges := make([][2]int, 0, seedEdges+(n-m-1)*m)
	// Repeated-endpoint list: picking a uniform element is degree-biased.
	endpoints := make([]int, 0, 2*cap(edges))
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			edges = append(edges, [2]int{i, j})
			endpoints = append(endpoints, i, j)
		}
	}
	picks := make([]int, 0, m)
	for v := m + 1; v < n; v++ {
		picks = picks[:0]
		for len(picks) < m {
			u := endpoints[rng.Intn(len(endpoints))]
			dup := false
			for _, p := range picks {
				if p == u {
					dup = true
					break
				}
			}
			if !dup {
				picks = append(picks, u)
			}
		}
		// Attach in sorted order so the endpoint list (which feeds every
		// later draw) is independent of pick order.
		sort.Ints(picks)
		for _, u := range picks {
			edges = append(edges, [2]int{u, v})
			endpoints = append(endpoints, v, u)
		}
	}
	return mustFromEdges(n, nil, 0, edges)
}

// DisjointUnion returns the disjoint union of the given graphs; node
// indices (and identifiers) of later graphs are shifted past the earlier
// ones, so identifiers stay distinct.
func DisjointUnion(gs ...*Graph) *Graph {
	n := 0
	for _, g := range gs {
		n += g.N()
	}
	b := NewBuilder(n)
	offset, idOffset := 0, 0
	for _, g := range gs {
		for i := 0; i < g.N(); i++ {
			b.SetID(offset+i, idOffset+g.ID(i))
		}
		for _, e := range g.Edges() {
			b.AddEdge(offset+e[0], offset+e[1])
		}
		offset += g.N()
		idOffset += g.D()
	}
	return b.MustBuild()
}

// FlipEdges returns a copy of g with k random node pairs toggled (edge
// added if absent, removed if present) — the "related network" churn of the
// paper's Section 1.1 motivation. Identifiers are preserved.
func FlipEdges(g *Graph, k int, rng *rand.Rand) *Graph {
	// Record the toggled pairs, then form the symmetric difference with the
	// (already sorted) edge list by a linear merge: no edge map, so churning
	// a million-node graph costs O(m + k log k) and flat memory. A pair
	// toggled an even number of times cancels out, exactly as repeated map
	// toggles did. The rng draw sequence is unchanged from the map-based
	// implementation.
	toggles := make([][2]int, 0, k)
	for i := 0; i < k && g.N() >= 2; i++ {
		u := rng.Intn(g.N())
		v := rng.Intn(g.N())
		for v == u {
			v = rng.Intn(g.N())
		}
		if u > v {
			u, v = v, u
		}
		toggles = append(toggles, [2]int{u, v})
	}
	sort.Slice(toggles, func(a, b int) bool {
		if toggles[a][0] != toggles[b][0] {
			return toggles[a][0] < toggles[b][0]
		}
		return toggles[a][1] < toggles[b][1]
	})
	flips := make([][2]int, 0, len(toggles))
	for i := 0; i < len(toggles); {
		j := i
		for j < len(toggles) && toggles[j] == toggles[i] {
			j++
		}
		if (j-i)%2 == 1 {
			flips = append(flips, toggles[i])
		}
		i = j
	}
	old := g.Edges()
	kept := make([][2]int, 0, len(old)+len(flips))
	i, j := 0, 0
	for i < len(old) && j < len(flips) {
		switch {
		case old[i][0] < flips[j][0] || (old[i][0] == flips[j][0] && old[i][1] < flips[j][1]):
			kept = append(kept, old[i])
			i++
		case old[i] == flips[j]:
			// Present edge toggled off.
			i++
			j++
		default:
			kept = append(kept, flips[j])
			j++
		}
	}
	kept = append(kept, old[i:]...)
	kept = append(kept, flips[j:]...)
	return mustFromEdges(g.N(), g.IDs(), g.D(), kept)
}

// ShuffleIDs returns a copy of g with identifiers drawn without replacement
// from {1, ..., domain} uniformly at random. It panics if domain < g.N().
func ShuffleIDs(g *Graph, domain int, rng *rand.Rand) *Graph {
	if domain < g.N() {
		panic(fmt.Errorf("graph: ShuffleIDs domain %d < n %d", domain, g.N()))
	}
	perm := rng.Perm(domain)
	b := NewBuilder(g.N())
	b.SetDomain(domain)
	for i := 0; i < g.N(); i++ {
		b.SetID(i, perm[i]+1)
	}
	for _, e := range g.Edges() {
		b.AddEdge(e[0], e[1])
	}
	return b.MustBuild()
}
