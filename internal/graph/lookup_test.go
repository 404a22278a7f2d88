package graph

import (
	"math/rand"
	"strings"
	"testing"
)

// linearIndexOfID is the reference IndexOfID: a scan of the identifiers.
func linearIndexOfID(g *Graph, id int) int {
	for i, x := range g.ids {
		if x == id {
			return i
		}
	}
	return -1
}

// TestIndexOfIDMatchesLinearReference compares the O(1) lookup with a scan
// on every lookup path, and checks which table each graph carries.
func TestIndexOfIDMatchesLinearReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dense := ShuffleIDs(Grid2D(5, 5), 100, rng)
	nearSparse := ShuffleIDs(Line(10), 4*10+1025, rng) // just past the dense rule
	spread := NewBuilder(20).SetDomain(1e9)
	for i := 0; i < 20; i++ {
		spread.SetID(i, 1e9-i*49_999_999)
		if i > 0 {
			spread.AddEdge(i-1, i)
		}
	}
	huge := spread.MustBuild()
	perm := rng.Perm(30)
	for i := range perm {
		perm[i]++
	}
	bijection, err := FromEdges(30, perm, 0, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	patched, _, err := dense.ApplyPatch(Patch{Insert: [][2]int{{0, 24}}, Delete: [][2]int{{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	patchedSparse, _, err := nearSparse.ApplyPatch(Patch{Insert: [][2]int{{0, 9}}})
	if err != nil {
		t.Fatal(err)
	}
	subDense, _ := dense.InducedSubgraph([]int{3, 7, 11, 20})
	subHuge, _ := huge.InducedSubgraph([]int{0, 5, 19})
	subIdentity, _ := Ring(12).InducedSubgraph([]int{0, 1, 2})

	const (
		none = iota
		denseTable
		sparseTable
	)
	cases := []struct {
		name  string
		g     *Graph
		table int
	}{
		{"zero value", &Graph{}, none},
		{"empty", NewBuilder(0).MustBuild(), none},
		{"identity ring", Ring(10), none},
		{"identity builder, huge domain", NewBuilder(5).SetDomain(1e9).MustBuild(), none},
		{"identity line with ids", LineWithIDs([]int{1, 2, 3}), none},
		{"dense shuffled", dense, denseTable},
		{"dense bijection", bijection, denseTable},
		{"sparse shuffled", nearSparse, sparseTable},
		{"sparse huge domain", huge, sparseTable},
		{"patched dense", patched, denseTable},
		{"patched sparse", patchedSparse, sparseTable},
		{"induced dense", subDense, denseTable},
		{"induced sparse", subHuge, sparseTable},
		{"induced identity prefix", subIdentity, none},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			table := none
			switch {
			case c.g.index.dense != nil:
				table = denseTable
			case c.g.index.sparse != nil:
				table = sparseTable
			}
			if table != c.table {
				t.Fatalf("lookup table kind %d, want %d", table, c.table)
			}
			if got := c.g.IdentityIDs(); got != (c.table == none) {
				t.Errorf("IdentityIDs() = %v", got)
			}
			check := func(id int) {
				if got, want := c.g.IndexOfID(id), linearIndexOfID(c.g, id); got != want {
					t.Fatalf("IndexOfID(%d) = %d, want %d", id, got, want)
				}
			}
			if c.g.D() <= 1<<20 {
				for id := -1; id <= c.g.D()+2; id++ {
					check(id)
				}
			} else {
				// A domain too large to sweep: every identifier, its
				// neighbours, and the domain's edges.
				for _, id := range c.g.ids {
					check(id - 1)
					check(id)
					check(id + 1)
				}
				for _, id := range []int{-1, 0, 1, 2, c.g.D() - 1, c.g.D(), c.g.D() + 1, c.g.D() + 2} {
					check(id)
				}
			}
			order := c.g.IndicesByID()
			if len(order) != c.g.N() {
				t.Fatalf("IndicesByID has %d entries, want %d", len(order), c.g.N())
			}
			for k := 1; k < len(order); k++ {
				if c.g.ID(order[k-1]) >= c.g.ID(order[k]) {
					t.Fatalf("IndicesByID not in ascending identifier order at %d", k)
				}
			}
		})
	}
}

// TestIdentifierValidationOrder pins the error for the first offending node
// on both table paths: a duplicate before a non-positive identifier is
// reported as the duplicate, whichever constructor validates.
func TestIdentifierValidationOrder(t *testing.T) {
	for _, ids := range [][]int{{4, 4, 0}, {1 << 30, 1 << 30, 0}} {
		b := NewBuilder(len(ids))
		for i, id := range ids {
			b.SetID(i, id)
		}
		_, errB := b.Build()
		_, errF := FromEdges(len(ids), ids, 0, nil)
		if errB == nil || errF == nil || errB.Error() != errF.Error() {
			t.Fatalf("ids %v: Build error %v, FromEdges error %v", ids, errB, errF)
		}
		if !strings.HasPrefix(errB.Error(), "graph: duplicate identifier") {
			t.Errorf("ids %v: error %q, want the duplicate reported first", ids, errB)
		}
	}
}
