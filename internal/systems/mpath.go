package systems

import (
	"fmt"
	"math/rand"

	"bqs/internal/bitset"
	"bqs/internal/combin"
	"bqs/internal/core"
	"bqs/internal/lattice"
)

// MPath is the multi-path construction of Section 7 (Figure 3): servers
// are the vertices of a triangulated d×d grid, a quorum being √(2b+1)
// vertex-disjoint left-right paths together with √(2b+1) vertex-disjoint
// top-bottom paths. The LR paths of one quorum cross the TB paths of
// another in ≥ 2b+1 distinct vertices (Proposition 7.1). M-Path is optimal
// in both load (≤ 2√((2b+1)/n), Proposition 7.2) and crash probability
// (F_p ≤ exp(−Ω(√n−√b)) for every p < 1/2, Proposition 7.3 — via site
// percolation on the triangular lattice, whose critical probability is
// 1/2).
//
// Quorums are picked per axis (selectPathQuorum): straight rows or columns
// while enough of them are alive — the Proposition 7.2 strategy — and
// max-flow paths only on an axis the failures have blocked. Straight,
// wiggly and mixed quorums all intersect, because any LR path crosses any
// TB path of the triangulated lattice; Proposition 7.1 needs nothing
// straighter.
type MPath struct {
	name  string
	d     int
	r     int // disjoint paths per direction: ⌈√(2b+1)⌉
	grid  *lattice.Grid
	lines [2]lineFamily // straight rows (LR paths), straight columns (TB paths)
}

var (
	_ core.System        = (*MPath)(nil)
	_ core.Parameterized = (*MPath)(nil)
	_ core.Masking       = (*MPath)(nil)
)

// NewMPath builds M-Path(b) on a d×d triangulated grid. Requires
// √(2b+1) ≤ d and the Proposition 7.1 masking condition
// MT − 1 = d − √(2b+1) ≥ b.
func NewMPath(d, b int) (*MPath, error) {
	if b < 0 || d < 1 {
		return nil, fmt.Errorf("systems: m-path: invalid d=%d b=%d", d, b)
	}
	r := combin.CeilSqrt(2*b + 1)
	if r > d {
		return nil, fmt.Errorf("systems: m-path: √(2b+1)=%d exceeds side %d", r, d)
	}
	if d-r < b {
		return nil, fmt.Errorf("systems: m-path: resilience d−√(2b+1)=%d below b=%d", d-r, b)
	}
	g, err := lattice.New(d)
	if err != nil {
		return nil, err
	}
	return &MPath{
		name: fmt.Sprintf("M-Path(d=%d,b=%d)", d, b),
		d:    d, r: r,
		grid:  g,
		lines: squareLines(d),
	}, nil
}

// Name returns the system's label.
func (m *MPath) Name() string { return m.name }

// UniverseSize returns n = d².
func (m *MPath) UniverseSize() int { return m.d * m.d }

// Grid exposes the underlying lattice (for rendering and analysis).
func (m *MPath) Grid() *lattice.Grid { return m.grid }

// SelectQuorum returns √(2b+1) vertex-disjoint open LR paths plus as many
// TB paths: uniformly random live rows and columns where enough exist,
// randomized max-flow paths (Menger's theorem) on an axis where they do
// not. It fails exactly when an axis has fewer than √(2b+1) disjoint open
// crossings of any shape. With nothing dead it is the Proposition 7.2
// strategy, giving load ≤ 2√(2b+1)/√n — optimal by Corollary 4.2.
func (m *MPath) SelectQuorum(rng *rand.Rand, dead bitset.Set) (bitset.Set, error) {
	return selectPathQuorum(m.grid, m.d*m.d, m.lines, m.r, rng, dead)
}

// pathLattice is what a path construction needs of its lattice when
// straight lines run out: k disjoint open crossings along an axis, added
// to q, or false when the dead set admits fewer.
type pathLattice interface {
	AddDisjointPaths(q *bitset.Set, axis lattice.Axis, dead bitset.Set, k int, rng *rand.Rand) bool
}

// lineFamily describes the straight lines of one axis as arithmetic
// progressions of element ids: line l is {l·step + k·stride : 0 ≤ k < length}.
// Every construction whose strategy draws whole lines uniformly picks its
// quorum through one: the rows and columns of Grid, M-Grid and the path
// systems, and Threshold's n lines of length one.
type lineFamily struct{ lines, length, step, stride int }

// squareLines returns the rows and the columns of a d×d grid numbered row
// by row.
func squareLines(d int) [2]lineFamily {
	return [2]lineFamily{
		{lines: d, length: d, step: d, stride: 1},
		{lines: d, length: d, step: 1, stride: d},
	}
}

func (f lineFamily) add(q *bitset.Set, l int) {
	for k := 0; k < f.length; k++ {
		q.Add(l*f.step + k*f.stride)
	}
}

// addFree adds r of the family's lines that avoid dead, drawn uniformly
// with rng, to q. With fewer than r free lines it adds nothing and
// reports false.
func (f lineFamily) addFree(q *bitset.Set, dead bitset.Set, r int, rng *rand.Rand) bool {
	var buf [32]int
	free := buf[:0]
	if f.lines > len(buf) {
		free = make([]int, 0, f.lines)
	}
	for l := 0; l < f.lines; l++ {
		k := 0
		for k < f.length && !dead.Contains(l*f.step+k*f.stride) {
			k++
		}
		if k == f.length {
			free = append(free, l)
		}
	}
	if len(free) < r {
		return false
	}
	for i := 0; i < r; i++ { // partial Fisher–Yates: a uniform r-subset
		j := i + rng.Intn(len(free)-i)
		free[i], free[j] = free[j], free[i]
		f.add(q, free[i])
	}
	return true
}

// selectPathQuorum is the picker of both path constructions, axis by axis:
// r straight lines drawn uniformly from those avoiding dead (with nothing
// dead, exactly the Proposition 7.2 strategy), and the lattice's max-flow
// only for an axis with fewer than r free lines — so the flow still decides
// whether a quorum exists (Definition 3.10), the lines only short-cut it.
func selectPathQuorum(g pathLattice, n int, lines [2]lineFamily, r int, rng *rand.Rand, dead bitset.Set) (bitset.Set, error) {
	q := bitset.New(n)
	for i, axis := range [2]lattice.Axis{lattice.LeftRight, lattice.TopBottom} {
		if !lines[i].addFree(&q, dead, r, rng) && !g.AddDisjointPaths(&q, axis, dead, r, rng) {
			return bitset.Set{}, core.ErrNoLiveQuorum
		}
	}
	return q, nil
}

// MinQuorumSize returns the straight-line quorum size 2rd − r², which
// witnesses the paper's bound c(M-Path) ≤ 2√(n(2b+1)) (Proposition 7.1).
// Wiggly paths are longer, so this is the size the strategy actually uses.
func (m *MPath) MinQuorumSize() int { return 2*m.r*m.d - m.r*m.r }

// MinIntersection returns the Proposition 7.1 guarantee IS ≥ r² ≥ 2b+1:
// the r LR paths of one quorum each cross the r TB paths of the other.
func (m *MPath) MinIntersection() int { return m.r * m.r }

// MinTransversal returns MT = d − √(2b+1) + 1 (Proposition 7.1, as in the
// M-Grid system).
func (m *MPath) MinTransversal() int { return m.d - m.r + 1 }

// MaskingBound applies Corollary 3.7.
func (m *MPath) MaskingBound() int { return core.MaskingBoundFromParams(m) }

// Load returns the straight-line strategy's load 2r/d − (r/d)², within the
// Proposition 7.2 bound 2√(2b+1)/√n and optimal up to the constant 2.
func (m *MPath) Load() float64 {
	rd := float64(m.r) / float64(m.d)
	return 2*rd - rd*rd
}
