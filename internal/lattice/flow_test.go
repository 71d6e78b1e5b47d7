package lattice

import (
	"math/rand"
	"sync"
	"testing"

	"bqs/internal/bitset"
)

// dinicValue rebuilds net's arcs, gated by dead, as a general flow network
// and returns its max-flow — the reference the kernel's count must equal.
func dinicValue(t *testing.T, net *flowNet, dead bitset.Set) int {
	t.Helper()
	nodes := len(net.first) - 1
	g := newDinic(nodes)
	for u := 0; u < nodes; u++ {
		for a := net.first[u]; a < net.first[u+1]; a++ {
			if net.cap0[a] == 0 || (net.elem[a] >= 0 && dead.Contains(int(net.elem[a]))) {
				continue
			}
			if err := g.AddEdge(u, int(net.head[a]), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	f, err := g.MaxFlow(int(net.src), int(net.snk))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestKernelMatchesDinic checks the kernel against the reference on random
// dead sets across the percolation threshold, for all four networks, with
// and without randomized search: same count, and the reported crossings
// avoid dead and are pairwise disjoint.
func TestKernelMatchesDinic(t *testing.T) {
	tri, _ := New(7)
	sq, _ := NewSquareEdge(6)
	nets := []struct {
		name     string
		net      *flowNet
		universe int
		sample   func(p float64, rng *rand.Rand) bitset.Set
	}{
		{"triangular LR", tri.lr, 49, tri.SampleDead},
		{"triangular TB", tri.tb, 49, tri.SampleDead},
		{"square primal LR", sq.lr, sq.NumEdges(), sq.sampleDeadEdges},
		{"square dual TB", sq.dualTB, sq.NumEdges(), sq.sampleDeadEdges},
	}
	rng := rand.New(rand.NewSource(160))
	for _, c := range nets {
		for _, p := range []float64{0.1, 0.3, 0.5} {
			for trial := 0; trial < 150; trial++ {
				dead := c.sample(p, rng)
				want := dinicValue(t, c.net, dead)
				if got := c.net.disjoint(dead, c.universe, nil, nil); got != want {
					t.Fatalf("%s p=%g: kernel found %d crossings, Dinic %d (dead %v)", c.name, p, got, want, dead)
				}
				used := bitset.New(c.universe)
				paths := 0
				got := c.net.disjoint(dead, c.universe, rng, func(path, e int) {
					if dead.Contains(e) {
						t.Fatalf("%s: crossing %d uses dead element %d", c.name, path, e)
					}
					if used.Contains(e) {
						t.Fatalf("%s: element %d used twice", c.name, e)
					}
					used.Add(e)
					paths = path + 1
				})
				if got != want || paths != want {
					t.Fatalf("%s p=%g: randomized search found %d crossings, walked %d, Dinic %d", c.name, p, got, paths, want)
				}
			}
		}
	}
}

// TestKernelConcurrentPicks runs the picker path from many goroutines on
// one grid: scratch comes from a pool, so concurrent picks must not share
// residual state (run under -race).
func TestKernelConcurrentPicks(t *testing.T) {
	g, _ := New(8)
	dead := bitset.New(64)
	for i := 0; i < 8; i++ {
		dead.Add(g.Index(i, i))
	}
	want := g.CountDisjointPaths(LeftRight, dead)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				q := bitset.New(64)
				if !g.AddDisjointPaths(&q, LeftRight, dead, want, rng) {
					t.Errorf("seed %d pick %d: %d disjoint paths not found", seed, i, want)
					return
				}
				if q.Intersects(dead) {
					t.Errorf("seed %d pick %d: paths use a dead vertex", seed, i)
					return
				}
				if g.AddDisjointPaths(&q, LeftRight, dead, want+1, rng) {
					t.Errorf("seed %d pick %d: found more than the maximum %d", seed, i, want)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}
