package graph

import (
	"fmt"
	"sort"
)

// Patch is an edge-set delta for ApplyPatch: the dynamic-session layer's
// unit of graph change. Node set, identifiers, and identifier domain are
// fixed for the life of a session; only edges move.
type Patch struct {
	// Insert lists edges to add (node-index pairs, either orientation).
	Insert [][2]int
	// Delete lists edges to remove.
	Delete [][2]int
}

// normalizePairs orients each pair u < v, sorts, and coalesces duplicates,
// validating ranges. It copies its input: callers' slices are not disturbed.
func normalizePairs(n int, pairs [][2]int) ([][2]int, error) {
	out := make([][2]int, 0, len(pairs))
	for _, e := range pairs {
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		if e[0] == e[1] {
			return nil, fmt.Errorf("graph: self-loop at node %d", e[0])
		}
		if e[0] < 0 || e[1] >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e[0], e[1], n)
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	w := 0
	for i, e := range out {
		if i > 0 && e == out[w-1] {
			continue
		}
		out[w] = e
		w++
	}
	return out[:w], nil
}

// edgeLess orders canonical (u < v) edges lexicographically.
func edgeLess(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// ApplyPatch returns a new graph with the patch applied, together with the
// sorted list of node indices whose adjacency actually changed (the damaged
// region a healing run must inspect). The receiver is not modified.
//
// Semantics are idempotent so that duplicated or replayed update batches
// converge: inserting an edge that already exists and deleting an edge that
// does not are no-ops (and contribute no changed nodes). An edge listed in
// both Insert and Delete is rejected as a malformed patch, as are self-loops
// and out-of-range endpoints.
//
// The rebuild is a single merge over the sorted edge list — O(m + k log k)
// for k patch entries — not a Builder round trip; identifiers, their
// lookup and the identifier domain carry over unchanged.
func (g *Graph) ApplyPatch(p Patch) (*Graph, []int, error) {
	ins, err := normalizePairs(g.n, p.Insert)
	if err != nil {
		return nil, nil, err
	}
	del, err := normalizePairs(g.n, p.Delete)
	if err != nil {
		return nil, nil, err
	}
	// Reject contradictory patches before touching anything: both lists are
	// sorted, so one linear scan finds a common edge.
	for i, j := 0, 0; i < len(ins) && j < len(del); {
		switch {
		case ins[i] == del[j]:
			return nil, nil, fmt.Errorf("graph: edge (%d,%d) in both Insert and Delete", ins[i][0], ins[i][1])
		case edgeLess(ins[i], del[j]):
			i++
		default:
			j++
		}
	}

	// Merge the existing sorted edge list with the inserts, minus the
	// deletes, recording which endpoints actually changed.
	merged := make([][2]int, 0, len(g.edges)+len(ins))
	changedSet := make(map[int]struct{})
	touch := func(e [2]int) {
		changedSet[e[0]] = struct{}{}
		changedSet[e[1]] = struct{}{}
	}
	i, j, k := 0, 0, 0 // g.edges, ins, del cursors
	for i < len(g.edges) || j < len(ins) {
		// Existing edge first when it sorts lower (or the insert duplicates it).
		if j >= len(ins) || (i < len(g.edges) && !edgeLess(ins[j], g.edges[i])) {
			e := g.edges[i]
			i++
			if j < len(ins) && ins[j] == e {
				j++ // insert of an existing edge: no-op
			}
			for k < len(del) && edgeLess(del[k], e) {
				k++ // delete of an absent edge: no-op
			}
			if k < len(del) && del[k] == e {
				k++
				touch(e) // actually deleted
				continue
			}
			merged = append(merged, e)
			continue
		}
		e := ins[j]
		j++
		merged = append(merged, e)
		touch(e) // actually inserted
	}

	changed := make([]int, 0, len(changedSet))
	for v := range changedSet {
		changed = append(changed, v)
	}
	sort.Ints(changed)

	// Rebuild CSR by counting sort; merged is already edge-sorted, so every
	// adjacency range comes out ascending (same argument as FromEdges).
	deg := make([]int32, g.n)
	for _, e := range merged {
		deg[e[0]]++
		deg[e[1]]++
	}
	offsets := make([]int32, g.n+1)
	for v := 0; v < g.n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	adj := make([]int32, offsets[g.n])
	fill := deg // reuse: overwritten below as the insertion cursor
	copy(fill, offsets[:g.n])
	for _, e := range merged {
		u, v := int32(e[0]), int32(e[1])
		adj[fill[u]] = v
		fill[u]++
		adj[fill[v]] = u
		fill[v]++
	}
	return &Graph{
		n:       g.n,
		d:       g.d,
		ids:     g.ids, // both graphs are immutable; sharing is safe
		index:   g.index,
		offsets: offsets,
		adj:     adj,
		edges:   merged,
	}, changed, nil
}
