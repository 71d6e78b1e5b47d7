// Package lattice implements the triangulated grid that underlies the
// M-Path construction (Section 7). Vertices are the integer points
// {(i,j) : 0 ≤ i,j < d}; edges connect (i,j)–(i,j+1), (i,j)–(i+1,j) and
// (i,j)–(i−1,j+1) (the paper's triangulation). A site is open when the
// corresponding server is alive; the package finds open left-right (LR)
// and top-bottom (TB) paths, finds vertex-disjoint families of them via
// max-flow (Menger's theorem; the kernel is flowNet, shared with the
// square edge lattice), and samples site percolation for the Appendix B
// experiments (critical probability 1/2 on this lattice).
package lattice

import (
	"fmt"
	"math/rand"

	"bqs/internal/bitset"
)

// Axis selects the traversal direction.
type Axis int

// Traversal directions.
const (
	LeftRight Axis = iota + 1 // paths from column 0 to column d−1
	TopBottom                 // paths from row 0 to row d−1
)

// Grid is a d×d triangulated lattice. It holds pooled flow scratch, so it
// is used through the pointer New returns and never copied.
type Grid struct {
	d int
	// One vertex-split flow network per axis: in(v) = 2v → out(v) = 2v+1
	// carries vertex v, out(v) → in(w) joins neighbours, and the source
	// and sink hang off the axis's two boundary lines.
	lr, tb *flowNet
}

// New returns a d×d grid; d must be at least 1.
func New(d int) (*Grid, error) {
	if d < 1 {
		return nil, fmt.Errorf("lattice: side %d must be at least 1", d)
	}
	g := &Grid{d: d}
	src, snk := 2*d*d, 2*d*d+1
	var shared []link
	var buf [][2]int
	for v := 0; v < d*d; v++ {
		shared = append(shared, link{from: 2 * v, to: 2*v + 1, elem: v})
		buf = g.Neighbors(v/d, v%d, buf[:0])
		for _, nb := range buf {
			shared = append(shared, link{from: 2*v + 1, to: 2 * g.Index(nb[0], nb[1]), elem: -1})
		}
	}
	lr, tb := shared, append([]link(nil), shared...)
	for k := 0; k < d; k++ {
		lr = append(lr,
			link{from: src, to: 2 * g.Index(k, 0), elem: -1},
			link{from: 2*g.Index(k, d-1) + 1, to: snk, elem: -1})
		tb = append(tb,
			link{from: src, to: 2 * g.Index(0, k), elem: -1},
			link{from: 2*g.Index(d-1, k) + 1, to: snk, elem: -1})
	}
	g.lr, g.tb = newFlowNet(2*d*d+2, src, snk, lr), newFlowNet(2*d*d+2, src, snk, tb)
	return g, nil
}

func (g *Grid) net(axis Axis) *flowNet {
	if axis == LeftRight {
		return g.lr
	}
	return g.tb
}

// Index maps (row, col) to the vertex id row·d + col.
func (g *Grid) Index(row, col int) int { return row*g.d + col }

// Neighbors appends the neighbors of (row, col) to buf and returns it.
// The triangulation gives interior vertices degree 6.
func (g *Grid) Neighbors(row, col int, buf [][2]int) [][2]int {
	d := g.d
	cand := [6][2]int{
		{row, col + 1}, {row, col - 1},
		{row + 1, col}, {row - 1, col},
		{row - 1, col + 1}, {row + 1, col - 1},
	}
	for _, c := range cand {
		if c[0] >= 0 && c[0] < d && c[1] >= 0 && c[1] < d {
			buf = append(buf, c)
		}
	}
	return buf
}

// AddDisjointPaths adds the vertices of k vertex-disjoint open crossing
// paths along the axis to q and reports whether k exist (when they do not,
// q holds a partial family to discard). Which paths are found is
// randomized by rng; they always avoid dead and stay as short as it allows.
func (g *Grid) AddDisjointPaths(q *bitset.Set, axis Axis, dead bitset.Set, k int, rng *rand.Rand) bool {
	return g.net(axis).addPaths(q, dead, k, rng)
}

// CountDisjointPaths returns the maximum number of vertex-disjoint open
// crossing paths along the axis (unbounded by any quorum size).
func (g *Grid) CountDisjointPaths(axis Axis, dead bitset.Set) int {
	return g.net(axis).disjoint(dead, g.d, nil, nil)
}

// SampleDead fills a fresh dead set where each site is closed independently
// with probability p (site percolation).
func (g *Grid) SampleDead(p float64, rng *rand.Rand) bitset.Set {
	dead := bitset.New(g.d * g.d)
	for v := 0; v < g.d*g.d; v++ {
		if rng.Float64() < p {
			dead.Add(v)
		}
	}
	return dead
}

// CrossingProbability estimates P_p(LR_k): the probability that k
// vertex-disjoint open crossings exist along the axis under site
// percolation with closure probability p. This is the quantity Appendix B
// bounds via Theorems B.1 and B.3.
func (g *Grid) CrossingProbability(axis Axis, p float64, k, trials int, rng *rand.Rand) (float64, error) {
	if trials <= 0 || k < 1 {
		return 0, fmt.Errorf("lattice: trials %d and k %d must be positive", trials, k)
	}
	success := 0
	for t := 0; t < trials; t++ {
		dead := g.SampleDead(p, rng)
		if g.net(axis).disjoint(dead, k, nil, nil) == k {
			success++
		}
	}
	return float64(success) / float64(trials), nil
}
