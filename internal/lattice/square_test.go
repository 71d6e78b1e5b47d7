package lattice

import (
	"math/rand"
	"testing"

	"bqs/internal/bitset"
)

// sampleDeadEdges closes each edge independently with probability p
// (bond percolation).
func (g *SquareEdgeGrid) sampleDeadEdges(p float64, rng *rand.Rand) bitset.Set {
	dead := bitset.New(g.NumEdges())
	for e := 0; e < g.NumEdges(); e++ {
		if rng.Float64() < p {
			dead.Add(e)
		}
	}
	return dead
}

func TestSquareEdgeValidation(t *testing.T) {
	if _, err := NewSquareEdge(1); err == nil {
		t.Error("d=1 should fail")
	}
	g, err := NewSquareEdge(4)
	if err != nil || g.d != 4 || g.NumEdges() != 24 {
		t.Fatalf("NewSquareEdge(4) = %v, %v", g, err)
	}
}

func TestSquareEdgeIDsDisjoint(t *testing.T) {
	g, _ := NewSquareEdge(5)
	seen := make(map[int]bool)
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			id := g.HEdge(i, j)
			if id < 0 || id >= g.NumEdges() || seen[id] {
				t.Fatalf("H(%d,%d) id %d invalid/duplicate", i, j, id)
			}
			seen[id] = true
		}
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			id := g.VEdge(i, j)
			if id < 0 || id >= g.NumEdges() || seen[id] {
				t.Fatalf("V(%d,%d) id %d invalid/duplicate", i, j, id)
			}
			seen[id] = true
		}
	}
	if len(seen) != g.NumEdges() {
		t.Fatalf("covered %d ids, want %d", len(seen), g.NumEdges())
	}
}

func TestSquareEdgeLRPathsFullAndBlocked(t *testing.T) {
	g, _ := NewSquareEdge(5)
	empty := bitset.New(g.NumEdges())
	paths, err := g.DisjointLRPaths(empty, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 5 {
		t.Fatalf("full grid LR paths = %d, want 5", len(paths))
	}
	// Paths consist of open edges and are edge-disjoint.
	used := map[int]bool{}
	for _, p := range paths {
		if len(p) < 4 {
			t.Fatalf("LR path %v shorter than grid width", p)
		}
		for _, e := range p {
			if used[e] {
				t.Fatal("edge reused")
			}
			used[e] = true
		}
	}
	// Cut a full column of H edges at j=2: no LR path survives unless it
	// detours — but every LR crossing must traverse some H edge in each
	// column index, so killing column 2 entirely blocks all LR paths.
	dead := bitset.New(g.NumEdges())
	for i := 0; i < 5; i++ {
		dead.Add(g.HEdge(i, 2))
	}
	blocked, err := g.DisjointLRPaths(dead, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocked) != 0 {
		t.Fatalf("LR paths through a dead H-column = %d, want 0", len(blocked))
	}
	if _, err := g.DisjointLRPaths(empty, 0); err == nil {
		t.Error("maxPaths=0 should fail")
	}
}

func TestSquareEdgeDualTBPaths(t *testing.T) {
	g, _ := NewSquareEdge(5)
	empty := bitset.New(g.NumEdges())
	paths, err := g.DisjointDualTBPaths(empty, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 { // d−1 cell columns
		t.Fatalf("dual TB paths = %d, want 4", len(paths))
	}
	used := map[int]bool{}
	for _, p := range paths {
		if len(p) != 5 { // straight dual path crosses d H edges
			// Non-straight decompositions can be longer; only disjointness
			// and validity are required.
			if len(p) < 5 {
				t.Fatalf("dual path %v crosses fewer than d edges", p)
			}
		}
		for _, e := range p {
			if e < 0 || e >= g.NumEdges() {
				t.Fatalf("crossed edge %d out of range", e)
			}
			if used[e] {
				t.Fatal("crossed edge reused")
			}
			used[e] = true
		}
	}
	if _, err := g.DisjointDualTBPaths(empty, 0); err == nil {
		t.Error("maxPaths=0 should fail")
	}
}

func TestSquareEdgeDualityCutArgument(t *testing.T) {
	// The percolation duality behind the construction: for any failure
	// pattern, an open LR primal path and an open dual TB path must share
	// an edge whenever both exist.
	g, _ := NewSquareEdge(6)
	rng := rand.New(rand.NewSource(90))
	for trial := 0; trial < 40; trial++ {
		dead := g.sampleDeadEdges(0.2, rng)
		lr, err := g.DisjointLRPaths(dead, 1)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := g.DisjointDualTBPaths(dead, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(lr) == 0 || len(tb) == 0 {
			continue
		}
		inLR := map[int]bool{}
		for _, e := range lr[0] {
			inLR[e] = true
		}
		shared := false
		for _, e := range tb[0] {
			if inLR[e] {
				shared = true
				break
			}
		}
		if !shared {
			t.Fatalf("trial %d: LR %v and dual TB %v share no edge", trial, lr[0], tb[0])
		}
	}
}

func TestSquareEdgeBondPercolationThreshold(t *testing.T) {
	// Bond percolation p_c = 1/2 [Kes80]: LR crossings abundant at
	// p = 0.3, rare at p = 0.7 on a 14×14 grid.
	g, _ := NewSquareEdge(14)
	rng := rand.New(rand.NewSource(91))
	count := func(p float64) int {
		hits := 0
		for i := 0; i < 60; i++ {
			dead := g.sampleDeadEdges(p, rng)
			paths, err := g.DisjointLRPaths(dead, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(paths) > 0 {
				hits++
			}
		}
		return hits
	}
	low, high := count(0.3), count(0.7)
	if low < 50 {
		t.Errorf("crossings at p=0.3: %d/60, want ≥ 50", low)
	}
	if high > 10 {
		t.Errorf("crossings at p=0.7: %d/60, want ≤ 10", high)
	}
}
