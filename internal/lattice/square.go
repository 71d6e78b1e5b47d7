package lattice

import (
	"fmt"
	"math/rand"

	"bqs/internal/bitset"
)

// SquareEdgeGrid is the square-lattice bond variant the paper mentions at
// the end of Section 7: servers correspond to the EDGES of a d×d vertex
// grid (as in [NW98]'s Paths construction), and bond percolation on the
// square lattice has critical probability 1/2 [Kes80]. Left-right quorum
// paths live in the primal lattice; top-bottom paths live in the planar
// dual, where each dual step crosses exactly one primal edge. By planar
// duality every LR primal path shares an edge with every TB dual path,
// which restores the intersection property with edge elements.
//
// Edge numbering: horizontal edge H(i,j) joins (i,j)–(i,j+1) for
// 0 ≤ i < d, 0 ≤ j < d−1, with id i·(d−1)+j. Vertical edge V(i,j) joins
// (i,j)–(i+1,j) for 0 ≤ i < d−1, 0 ≤ j < d, with id d(d−1) + i·d + j.
// The universe size is 2d(d−1).
type SquareEdgeGrid struct {
	d int
	// lr is the primal network (vertices joined by their edges, source on
	// the left column, sink on the right); dualTB is the dual one (cells
	// joined by the primal edge between them, source above the top row of
	// cells, sink below the bottom row). Each arc carries the primal edge
	// it uses or crosses: every primal edge is crossed by exactly one dual
	// step, so unit arcs give edge-disjoint crossed sets.
	lr, dualTB *flowNet
}

// NewSquareEdge returns the edge lattice on a d×d vertex grid (d ≥ 2).
func NewSquareEdge(d int) (*SquareEdgeGrid, error) {
	if d < 2 {
		return nil, fmt.Errorf("lattice: square-edge side %d must be at least 2", d)
	}
	g := &SquareEdgeGrid{d: d}

	vid := func(i, j int) int { return i*d + j }
	src, snk := d*d, d*d+1
	var lr []link
	for i := 0; i < d; i++ {
		lr = append(lr,
			link{from: src, to: vid(i, 0), elem: -1},
			link{from: vid(i, d-1), to: snk, elem: -1})
		for j := 0; j < d-1; j++ {
			lr = append(lr,
				link{from: vid(i, j), to: vid(i, j+1), elem: g.HEdge(i, j), twoWay: true},
				link{from: vid(j, i), to: vid(j+1, i), elem: g.VEdge(j, i), twoWay: true})
		}
	}
	g.lr = newFlowNet(d*d+2, src, snk, lr)

	// Moving down from cell (i,j) crosses H(i+1,j), entering from the top
	// crosses H(0,j), leaving at the bottom crosses H(d−1,j), and moving
	// right from cell (i,j) crosses V(i,j+1).
	c := d - 1 // cells per side
	cell := func(i, j int) int { return i*c + j }
	top, bottom := c*c, c*c+1
	var tb []link
	for j := 0; j < c; j++ {
		tb = append(tb,
			link{from: top, to: cell(0, j), elem: g.HEdge(0, j)},
			link{from: cell(c-1, j), to: bottom, elem: g.HEdge(d-1, j)})
		for i := 0; i < c-1; i++ {
			tb = append(tb,
				link{from: cell(i, j), to: cell(i+1, j), elem: g.HEdge(i+1, j), twoWay: true},
				link{from: cell(j, i), to: cell(j, i+1), elem: g.VEdge(j, i+1), twoWay: true})
		}
	}
	g.dualTB = newFlowNet(c*c+2, top, bottom, tb)
	return g, nil
}

// NumEdges returns the universe size 2d(d−1).
func (g *SquareEdgeGrid) NumEdges() int { return 2 * g.d * (g.d - 1) }

// HEdge returns the id of H(i,j), the edge (i,j)–(i,j+1).
func (g *SquareEdgeGrid) HEdge(i, j int) int { return i*(g.d-1) + j }

// VEdge returns the id of V(i,j), the edge (i,j)–(i+1,j).
func (g *SquareEdgeGrid) VEdge(i, j int) int { return g.d*(g.d-1) + i*g.d + j }

func (g *SquareEdgeGrid) net(axis Axis) *flowNet {
	if axis == LeftRight {
		return g.lr
	}
	return g.dualTB
}

// DisjointLRPaths returns up to maxPaths edge-disjoint open left-right
// paths in the primal lattice, each as a list of edge ids.
func (g *SquareEdgeGrid) DisjointLRPaths(dead bitset.Set, maxPaths int) ([][]int, error) {
	if maxPaths < 1 {
		return nil, fmt.Errorf("lattice: maxPaths %d must be positive", maxPaths)
	}
	return g.lr.pathLists(dead, maxPaths), nil
}

// DisjointDualTBPaths returns up to maxPaths top-bottom paths in the
// planar dual whose crossed primal edges are all open and pairwise
// disjoint. Each path is returned as the list of crossed primal edge ids.
func (g *SquareEdgeGrid) DisjointDualTBPaths(dead bitset.Set, maxPaths int) ([][]int, error) {
	if maxPaths < 1 {
		return nil, fmt.Errorf("lattice: maxPaths %d must be positive", maxPaths)
	}
	return g.dualTB.pathLists(dead, maxPaths), nil
}

// AddDisjointPaths adds the edges of k disjoint open crossings to q —
// primal left-right paths for LeftRight, the crossed sets of dual
// top-bottom paths for TopBottom — and reports whether k exist (when they
// do not, q holds a partial family to discard). Which crossings are found
// is randomized by rng; they always avoid dead.
func (g *SquareEdgeGrid) AddDisjointPaths(q *bitset.Set, axis Axis, dead bitset.Set, k int, rng *rand.Rand) bool {
	return g.net(axis).addPaths(q, dead, k, rng)
}
