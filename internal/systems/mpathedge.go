package systems

import (
	"fmt"
	"math/rand"

	"bqs/internal/bitset"
	"bqs/internal/combin"
	"bqs/internal/core"
	"bqs/internal/lattice"
)

// MPathEdge is the square-lattice variant the paper mentions at the end
// of Section 7 and omits: servers are the EDGES of a d×d vertex grid (as
// in [NW98]), a quorum being √(2b+1) edge-disjoint open left-right paths
// in the primal lattice together with √(2b+1) top-bottom paths in the
// planar dual (represented by the primal edges they cross). Planar
// duality makes every LR path share an edge with every dual TB path, so
// the r² pairwise crossings give IS ≥ 2b+1 exactly as in Proposition 7.1.
// Bond percolation on the square lattice has p_c = 1/2 [Kes80], so the
// availability behavior matches the triangular M-Path; the ablation
// finding is the load: the straight-line strategy touches only horizontal
// edges, costing a factor ≈ √2 over the triangular construction.
//
// Quorums are picked like M-Path's (selectPathQuorum): straight lines of
// horizontal edges per axis while enough are alive, max-flow paths only on
// a blocked axis; duality holds for paths of any shape, so mixed quorums
// intersect too.
type MPathEdge struct {
	name  string
	d     int
	r     int
	grid  *lattice.SquareEdgeGrid
	lines [2]lineFamily // rows of H edges (LR paths), columns of H edges (crossed by straight dual TB paths)
}

var (
	_ core.System        = (*MPathEdge)(nil)
	_ core.Parameterized = (*MPathEdge)(nil)
	_ core.Masking       = (*MPathEdge)(nil)
)

// NewMPathEdge builds the edge variant on a d×d vertex grid
// (n = 2d(d−1) servers). The dual admits only d−1 disjoint TB paths, so
// √(2b+1) ≤ d−1 is required, along with resilience ≥ b.
func NewMPathEdge(d, b int) (*MPathEdge, error) {
	if b < 0 || d < 2 {
		return nil, fmt.Errorf("systems: m-path-edge: invalid d=%d b=%d", d, b)
	}
	r := combin.CeilSqrt(2*b + 1)
	if r > d-1 {
		return nil, fmt.Errorf("systems: m-path-edge: √(2b+1)=%d exceeds dual capacity %d", r, d-1)
	}
	if d-1-r < b {
		return nil, fmt.Errorf("systems: m-path-edge: resilience %d below b=%d", d-1-r, b)
	}
	g, err := lattice.NewSquareEdge(d)
	if err != nil {
		return nil, err
	}
	return &MPathEdge{
		name: fmt.Sprintf("M-PathEdge(d=%d,b=%d)", d, b),
		d:    d, r: r,
		grid: g,
		lines: [2]lineFamily{
			{lines: d, length: d - 1, step: d - 1, stride: 1},
			{lines: d - 1, length: d, step: 1, stride: d - 1},
		},
	}, nil
}

// Name returns the system's label.
func (m *MPathEdge) Name() string { return m.name }

// UniverseSize returns n = 2d(d−1) (one server per edge).
func (m *MPathEdge) UniverseSize() int { return m.grid.NumEdges() }

// SelectQuorum returns r edge-disjoint open LR primal paths plus r dual TB
// paths with open, disjoint crossed edges, as the union of all involved
// edges: uniformly random live rows and columns of horizontal edges where
// enough exist, randomized max-flow paths on an axis where they do not.
func (m *MPathEdge) SelectQuorum(rng *rand.Rand, dead bitset.Set) (bitset.Set, error) {
	return selectPathQuorum(m.grid, m.UniverseSize(), m.lines, m.r, rng, dead)
}

// MinQuorumSize returns the straight-line quorum size
// r(d−1) + rd − r² (rows of H edges plus columns of H edges minus
// crossings), witnessing c ≤ 2√(n(2b+1)) as in Proposition 7.1.
func (m *MPathEdge) MinQuorumSize() int { return m.r*(m.d-1) + m.r*m.d - m.r*m.r }

// MinIntersection returns the duality guarantee r² ≥ 2b+1: every LR
// primal path crosses every dual TB path in at least one edge.
func (m *MPathEdge) MinIntersection() int { return m.r * m.r }

// MinTransversal returns d−r: the primal LR min cut is d and the dual TB
// min cut is d−1, so killing (d−1)−r+1 = d−r edges starves the dual side
// first.
func (m *MPathEdge) MinTransversal() int { return m.d - m.r }

// MaskingBound applies Corollary 3.7.
func (m *MPathEdge) MaskingBound() int { return core.MaskingBoundFromParams(m) }

// Load returns the straight-line strategy's exact busiest-edge frequency.
// Horizontal edge H(i,j) is hit when row i (probability r/d) or column j
// (probability r/(d−1)) is chosen; vertical edges are never hit.
func (m *MPathEdge) Load() float64 {
	pr := float64(m.r) / float64(m.d)
	pc := float64(m.r) / float64(m.d-1)
	return pr + pc - pr*pc
}
