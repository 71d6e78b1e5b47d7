package lattice

import "testing"

func mustAdd(t *testing.T, g *dinicGraph, u, v, c int) {
	t.Helper()
	if err := g.AddEdge(u, v, c); err != nil {
		t.Fatal(err)
	}
}

func TestTrivialDirect(t *testing.T) {
	g := newDinic(2)
	mustAdd(t, g, 0, 1, 5)
	f, err := g.MaxFlow(0, 1)
	if err != nil || f != 5 {
		t.Fatalf("flow = %d, %v; want 5", f, err)
	}
}

func TestClassicNetwork(t *testing.T) {
	// CLRS-style example with known max flow 23.
	g := newDinic(6)
	mustAdd(t, g, 0, 1, 16)
	mustAdd(t, g, 0, 2, 13)
	mustAdd(t, g, 1, 2, 10)
	mustAdd(t, g, 2, 1, 4)
	mustAdd(t, g, 1, 3, 12)
	mustAdd(t, g, 3, 2, 9)
	mustAdd(t, g, 2, 4, 14)
	mustAdd(t, g, 4, 3, 7)
	mustAdd(t, g, 3, 5, 20)
	mustAdd(t, g, 4, 5, 4)
	f, err := g.MaxFlow(0, 5)
	if err != nil || f != 23 {
		t.Fatalf("flow = %d, %v; want 23", f, err)
	}
}

func TestDisconnected(t *testing.T) {
	g := newDinic(4)
	mustAdd(t, g, 0, 1, 3)
	mustAdd(t, g, 2, 3, 3)
	f, err := g.MaxFlow(0, 3)
	if err != nil || f != 0 {
		t.Fatalf("flow = %d, %v; want 0", f, err)
	}
}

func TestErrors(t *testing.T) {
	g := newDinic(3)
	if err := g.AddEdge(-1, 0, 1); err == nil {
		t.Error("negative vertex should error")
	}
	if err := g.AddEdge(0, 3, 1); err == nil {
		t.Error("out-of-range vertex should error")
	}
	if err := g.AddEdge(0, 1, -1); err == nil {
		t.Error("negative capacity should error")
	}
	if _, err := g.MaxFlow(0, 0); err == nil {
		t.Error("s==t should error")
	}
	if _, err := g.MaxFlow(0, 5); err == nil {
		t.Error("sink out of range should error")
	}
}

func TestUnitCapacityDisjointPaths(t *testing.T) {
	// Two vertex-disjoint paths 0→1→3 and 0→2→3 with unit capacities.
	g := newDinic(4)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 0, 2, 1)
	mustAdd(t, g, 1, 3, 1)
	mustAdd(t, g, 2, 3, 1)
	f, err := g.MaxFlow(0, 3)
	if err != nil || f != 2 {
		t.Fatalf("flow = %d, %v; want 2", f, err)
	}
}

func TestRepeatedMaxFlowReturnsZero(t *testing.T) {
	g := newDinic(3)
	mustAdd(t, g, 0, 1, 2)
	mustAdd(t, g, 1, 2, 2)
	f1, _ := g.MaxFlow(0, 2)
	f2, _ := g.MaxFlow(0, 2)
	if f1 != 2 || f2 != 0 {
		t.Fatalf("flows = %d, %d; want 2, 0", f1, f2)
	}
}

// TestMengerOnGrid checks max-flow = vertex connectivity between sides on a
// k×k grid with split vertices, which is exactly how the M-Path system
// counts disjoint paths.
func TestMengerOnGrid(t *testing.T) {
	k := 5
	// Vertex split: in(i,j) = 2*(i*k+j), out = in+1. Source k*k*2, sink +1.
	in := func(i, j int) int { return 2 * (i*k + j) }
	out := func(i, j int) int { return 2*(i*k+j) + 1 }
	src, snk := 2*k*k, 2*k*k+1
	g := newDinic(2*k*k + 2)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			mustAdd(t, g, in(i, j), out(i, j), 1)
			if j+1 < k {
				mustAdd(t, g, out(i, j), in(i, j+1), 1)
				mustAdd(t, g, out(i, j+1), in(i, j), 1)
			}
			if i+1 < k {
				mustAdd(t, g, out(i, j), in(i+1, j), 1)
				mustAdd(t, g, out(i+1, j), in(i, j), 1)
			}
		}
		mustAdd(t, g, src, in(i, 0), 1)
		mustAdd(t, g, out(i, k-1), snk, 1)
	}
	f, err := g.MaxFlow(src, snk)
	if err != nil {
		t.Fatal(err)
	}
	// A k×k grid has exactly k vertex-disjoint left-right paths (the rows).
	if f != k {
		t.Fatalf("grid disjoint paths = %d, want %d", f, k)
	}
}
