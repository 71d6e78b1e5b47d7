package lattice

import (
	"math/rand"
	"testing"

	"bqs/internal/bitset"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("d=0 should fail")
	}
	g, err := New(3)
	if err != nil || g.d != 3 {
		t.Fatalf("New(3) = %v, %v", g, err)
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	g, _ := New(5)
	for v := 0; v < 25; v++ {
		if g.Index(v/5, v%5) != v {
			t.Fatalf("round trip fails at %d", v)
		}
	}
}

func TestNeighborsDegree(t *testing.T) {
	g, _ := New(4)
	// Interior vertex (1,1): 6 neighbors in the triangulation.
	nb := g.Neighbors(1, 1, nil)
	if len(nb) != 6 {
		t.Errorf("interior degree = %d, want 6", len(nb))
	}
	// Top-left corner (0,0): (0,1), (1,0) — the (−1,1) and (1,−1) drops.
	nb = g.Neighbors(0, 0, nil)
	if len(nb) != 2 {
		t.Errorf("corner (0,0) degree = %d, want 2", len(nb))
	}
	// Bottom-left corner (d−1,0): (d−1,1), (d−2,0), (d−2,1) → 3.
	nb = g.Neighbors(3, 0, nil)
	if len(nb) != 3 {
		t.Errorf("corner (3,0) degree = %d, want 3", len(nb))
	}
}

func TestNeighborSymmetry(t *testing.T) {
	g, _ := New(5)
	adj := make(map[[2]int]bool)
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			for _, nb := range g.Neighbors(r, c, nil) {
				adj[[2]int{g.Index(r, c), g.Index(nb[0], nb[1])}] = true
			}
		}
	}
	for e := range adj {
		if !adj[[2]int{e[1], e[0]}] {
			t.Fatalf("edge %v lacks reverse", e)
		}
	}
}

func TestHasOpenPathNoFailures(t *testing.T) {
	g, _ := New(6)
	empty := bitset.New(36)
	if g.CountDisjointPaths(LeftRight, empty) == 0 || g.CountDisjointPaths(TopBottom, empty) == 0 {
		t.Fatal("fully open grid must have crossings both ways")
	}
}

func TestHasOpenPathBlockedByColumn(t *testing.T) {
	g, _ := New(5)
	// A fully dead column blocks LR traffic...
	dead := bitset.New(25)
	for r := 0; r < 5; r++ {
		dead.Add(g.Index(r, 2))
	}
	if g.CountDisjointPaths(LeftRight, dead) != 0 {
		t.Error("dead column should block LR paths")
	}
	// ...but on the triangular lattice a dead column also blocks TB? No:
	// TB paths can run inside another column untouched.
	if g.CountDisjointPaths(TopBottom, dead) == 0 {
		t.Error("dead column should not block TB paths")
	}
}

func TestDisjointPathsFullGrid(t *testing.T) {
	g, _ := New(6)
	empty := bitset.New(36)
	paths := g.lr.pathLists(empty, 6)
	if len(paths) != 6 {
		t.Fatalf("open 6×6 grid supports %d disjoint LR paths, want 6", len(paths))
	}
	seen := bitset.New(36)
	for _, p := range paths {
		// Valid crossing: starts col 0, ends col d−1, consecutive neighbors.
		if p[0]%6 != 0 {
			t.Fatalf("path %v does not start at left edge", p)
		}
		if p[len(p)-1]%6 != 5 {
			t.Fatalf("path %v does not end at right edge", p)
		}
		for i := 1; i < len(p); i++ {
			r0, c0 := p[i-1]/6, p[i-1]%6
			ok := false
			for _, nb := range g.Neighbors(r0, c0, nil) {
				if g.Index(nb[0], nb[1]) == p[i] {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("path %v has non-adjacent step %d→%d", p, p[i-1], p[i])
			}
		}
		for _, v := range p {
			if seen.Contains(v) {
				t.Fatalf("vertex %d reused across paths", v)
			}
			seen.Add(v)
		}
	}
}

func TestDisjointPathsRespectDeadAndCap(t *testing.T) {
	g, _ := New(5)
	dead := bitset.New(25)
	// Kill rows 0 and 1 entirely: at most 3 disjoint LR paths remain.
	for c := 0; c < 5; c++ {
		dead.Add(g.Index(0, c))
		dead.Add(g.Index(1, c))
	}
	paths := g.lr.pathLists(dead, 5)
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	for _, p := range paths {
		for _, v := range p {
			if dead.Contains(v) {
				t.Fatalf("path uses dead vertex %d", v)
			}
		}
	}
	// maxPaths cap respected.
	if capped := g.lr.pathLists(dead, 2); len(capped) != 2 {
		t.Fatalf("cap 2 returned %d paths", len(capped))
	}
}

func TestCountDisjointPaths(t *testing.T) {
	g, _ := New(4)
	if n := g.CountDisjointPaths(TopBottom, bitset.New(16)); n != 4 {
		t.Fatalf("count = %d; want 4", n)
	}
}

func TestPercolationThresholdShape(t *testing.T) {
	// Site percolation on the triangular lattice has p_c = 1/2: crossing
	// probability should be near 1 for p = 0.3 and near 0 for p = 0.7 on a
	// modest grid. (p here is the closure probability.)
	g, _ := New(20)
	rng := rand.New(rand.NewSource(99))
	low, err := g.CrossingProbability(LeftRight, 0.3, 1, 300, rng)
	if err != nil {
		t.Fatal(err)
	}
	high, err := g.CrossingProbability(LeftRight, 0.7, 1, 300, rng)
	if err != nil {
		t.Fatal(err)
	}
	if low < 0.9 {
		t.Errorf("P_0.3(LR) = %g, want > 0.9", low)
	}
	if high > 0.1 {
		t.Errorf("P_0.7(LR) = %g, want < 0.1", high)
	}
	if _, err := g.CrossingProbability(LeftRight, 0.5, 1, 0, rng); err == nil {
		t.Error("0 trials should fail")
	}
}

func TestCrossingProbabilityMultiplePaths(t *testing.T) {
	// Needing more disjoint paths can only lower the probability.
	g, _ := New(12)
	rng := rand.New(rand.NewSource(17))
	p1, err := g.CrossingProbability(LeftRight, 0.25, 1, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := g.CrossingProbability(LeftRight, 0.25, 3, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p3 > p1+0.05 {
		t.Errorf("P(LR_3) = %g exceeds P(LR_1) = %g", p3, p1)
	}
}
