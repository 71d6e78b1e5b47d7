package systems

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"bqs/internal/bitset"
	"bqs/internal/core"
	"bqs/internal/lattice"
	"bqs/internal/measures"
)

func TestMPathEdgeValidation(t *testing.T) {
	if _, err := NewMPathEdge(1, 0); err == nil {
		t.Error("d=1 should fail")
	}
	if _, err := NewMPathEdge(4, 5); err == nil {
		t.Error("r > d−1 should fail")
	}
	if _, err := NewMPathEdge(6, 4); err == nil {
		t.Error("insufficient resilience should fail")
	}
	if _, err := NewMPathEdge(9, 4); err != nil {
		t.Errorf("MPathEdge(9,4) rejected: %v", err)
	}
}

func TestMPathEdgeUniverseAndParams(t *testing.T) {
	m, err := NewMPathEdge(9, 4) // r = 3
	if err != nil {
		t.Fatal(err)
	}
	if m.UniverseSize() != 2*9*8 {
		t.Errorf("n = %d, want 144", m.UniverseSize())
	}
	if m.r != 3 {
		t.Errorf("r = %d, want 3", m.r)
	}
	if m.MinIntersection() != 9 {
		t.Errorf("IS = %d, want 9 ≥ 2b+1", m.MinIntersection())
	}
	if !core.IsBMasking(m, 4) {
		t.Error("MPathEdge(9,4) should be 4-masking")
	}
}

func TestMPathEdgeSelectQuorumDuality(t *testing.T) {
	// Every selected quorum must pairwise intersect in ≥ 2b+1 edges — the
	// planar-duality argument made concrete.
	m, err := NewMPathEdge(8, 2) // r = 3
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	n := m.UniverseSize()
	for trial := 0; trial < 25; trial++ {
		deadA, deadB := bitset.New(n), bitset.New(n)
		for e := 0; e < n; e++ {
			if rng.Intn(14) == 0 {
				deadA.Add(e)
			}
			if rng.Intn(14) == 0 {
				deadB.Add(e)
			}
		}
		qa, errA := m.SelectQuorum(rng, deadA)
		qb, errB := m.SelectQuorum(rng, deadB)
		if errA != nil || errB != nil {
			continue
		}
		if qa.Intersects(deadA) || qb.Intersects(deadB) {
			t.Fatal("quorum uses dead edge")
		}
		if got := qa.IntersectionCount(qb); got < 2*2+1 {
			t.Fatalf("trial %d: |Q1∩Q2| = %d < 5", trial, got)
		}
	}
}

func TestMPathEdgeStraightQuorumIsValid(t *testing.T) {
	// The sampled straight-line quorum must itself satisfy the masking
	// intersection property against max-flow-selected quorums.
	m, _ := NewMPathEdge(9, 4)
	rng := rand.New(rand.NewSource(52))
	straight, err := m.SelectQuorum(rng, bitset.Set{})
	if err != nil {
		t.Fatal(err)
	}
	flowQ, err := m.SelectQuorum(rng, bitset.New(m.UniverseSize()))
	if err != nil {
		t.Fatal(err)
	}
	if got := straight.IntersectionCount(flowQ); got < 9 {
		t.Fatalf("straight vs flow quorum intersect in %d < 9 edges", got)
	}
	if straight.Count() != m.MinQuorumSize() {
		t.Errorf("straight quorum size %d, want %d", straight.Count(), m.MinQuorumSize())
	}
}

func TestMPathEdgeLoadAblation(t *testing.T) {
	// Ablation vs the triangular M-Path: at comparable n and the same b,
	// the edge variant's load is ≈ √2 higher (only horizontal edges carry
	// straight-line traffic).
	vertexVariant, err := NewMPath(17, 4) // n = 289
	if err != nil {
		t.Fatal(err)
	}
	edgeVariant, err := NewMPathEdge(13, 4) // n = 312
	if err != nil {
		t.Fatal(err)
	}
	ratio := edgeVariant.Load() / vertexVariant.Load()
	if ratio < 1.1 || ratio > 2.1 {
		t.Errorf("edge/vertex load ratio = %.2f, expected ≈ √2", ratio)
	}
	// Still within the Corollary 4.2 bound regime.
	lower := measures.GlobalLoadLowerBound(edgeVariant.UniverseSize(), 4)
	if edgeVariant.Load() < lower {
		t.Error("load below lower bound — impossible")
	}
}

func TestMPathEdgeEmpiricalLoad(t *testing.T) {
	m, _ := NewMPathEdge(9, 4)
	rng := rand.New(rand.NewSource(53))
	got, err := measures.EmpiricalLoad(m, 20000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-m.Load()) > 0.04 {
		t.Errorf("empirical %g vs analytic %g", got, m.Load())
	}
}

func TestMPathEdgeFailsWhenCut(t *testing.T) {
	m, _ := NewMPathEdge(6, 1) // r = 2
	rng := rand.New(rand.NewSource(54))
	// Kill all horizontal edges in rows 0..4 at column 0 and all vertical
	// edges... simpler: kill every H edge, leaving no dual TB paths.
	dead := bitset.New(m.UniverseSize())
	g, _ := lattice.NewSquareEdge(6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 5; j++ {
			dead.Add(g.HEdge(i, j))
		}
	}
	if _, err := m.SelectQuorum(rng, dead); !errors.Is(err, core.ErrNoLiveQuorum) {
		t.Errorf("err = %v, want ErrNoLiveQuorum", err)
	}
}

func TestMPathEdgeBondPercolationAvailability(t *testing.T) {
	// Bond percolation p_c = 1/2: at p = 0.25 the system should survive
	// most random failure patterns; Monte Carlo sanity check.
	m, err := NewMPathEdge(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(55))
	mc, err := measures.CrashProbabilityMC(m, 0.25, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Estimate > 0.35 {
		t.Errorf("F_0.25 = %g, expected small below p_c = 1/2", mc.Estimate)
	}
}

func TestSquareEdgeGridPrimitives(t *testing.T) {
	g, err := lattice.NewSquareEdge(5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2*5*4 {
		t.Errorf("edges = %d, want 40", g.NumEdges())
	}
	// Edge ids must be unique and within range.
	seen := map[int]bool{}
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			for _, e := range []int{g.HEdge(i, j), g.VEdge(j, i)} {
				if e < 0 || e >= g.NumEdges() || seen[e] {
					t.Fatalf("bad edge id %d", e)
				}
				seen[e] = true
			}
		}
	}
	// Full grid: 5 disjoint LR paths (the rows), 4 dual TB paths.
	empty := bitset.New(g.NumEdges())
	lr, err := g.DisjointLRPaths(empty, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr) != 5 {
		t.Errorf("LR paths = %d, want 5", len(lr))
	}
	tb, err := g.DisjointDualTBPaths(empty, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb) != 4 {
		t.Errorf("dual TB paths = %d, want 4", len(tb))
	}
	// Edge-disjointness within each family.
	for _, fam := range [][][]int{lr, tb} {
		used := map[int]bool{}
		for _, p := range fam {
			for _, e := range p {
				if used[e] {
					t.Fatal("edge reused within family")
				}
				used[e] = true
			}
		}
	}
	// Duality: every LR path shares ≥ 1 edge with every dual TB path.
	for _, lp := range lr {
		for _, tp := range tb {
			if !sharesEdge(lp, tp) {
				t.Fatalf("LR path %v misses dual TB path %v — duality violated", lp, tp)
			}
		}
	}
	if _, err := g.DisjointLRPaths(empty, 0); err == nil {
		t.Error("maxPaths=0 should fail")
	}
	if _, err := g.DisjointDualTBPaths(empty, 0); err == nil {
		t.Error("maxPaths=0 should fail")
	}
	if _, err := lattice.NewSquareEdge(1); err == nil {
		t.Error("d=1 should fail")
	}
}

func sharesEdge(a, b []int) bool {
	set := map[int]bool{}
	for _, e := range a {
		set[e] = true
	}
	for _, e := range b {
		if set[e] {
			return true
		}
	}
	return false
}
