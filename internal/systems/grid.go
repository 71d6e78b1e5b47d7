package systems

import (
	"fmt"
	"math"
	"math/rand"

	"bqs/internal/bitset"
	"bqs/internal/combin"
	"bqs/internal/core"
)

// Grid is a rows-and-columns system on a d×d grid of servers: a quorum is
// `rows` full rows together with `cols` full columns. Two constructions
// share it:
//
//   - the b-masking grid of [MR98a] (NewGrid), the second baseline in
//     Table 2: one row and 2b+1 columns, whose columns cross the other
//     quorum's row in ≥ 2b+1 elements. The paper cites its properties as
//     b < √n/3, f = O(√n − b), L ≈ 2b/√n and F_p → 1;
//   - the multi-grid of Section 5.1 (NewMGrid, Figure 1): √(b+1) rows and
//     √(b+1) columns. Two quorums sharing a line meet in ≥ d elements;
//     otherwise the row/column crossings give ≥ 2(b+1) > 2b+1, so it is
//     b-masking for b ≤ (√n − 1)/2 (Proposition 5.1). Its load
//     ≈ 2√(b+1)/√n is optimal (Proposition 5.2).
//
// Either way F_p → 1 as n → ∞ (the [KC91, Woo96] row bound).
type Grid struct {
	name       string
	d          int
	rows, cols int // full lines per quorum along each axis
}

var (
	_ core.System        = (*Grid)(nil)
	_ core.Parameterized = (*Grid)(nil)
	_ core.Masking       = (*Grid)(nil)
	_ core.Enumerator    = (*Grid)(nil)
)

// NewGrid builds the [MR98a] grid over a d×d universe (n = d²) masking b
// faults. Requires d ≥ 2b+1 (to pick the columns) and b ≤ (d−1)/3
// (resilience, Lemma 3.6).
func NewGrid(d, b int) (*Grid, error) {
	if b < 0 || d < 1 {
		return nil, fmt.Errorf("systems: grid: invalid d=%d b=%d", d, b)
	}
	if 2*b+1 > d {
		return nil, fmt.Errorf("systems: grid: 2b+1=%d columns exceed side %d", 2*b+1, d)
	}
	if 3*b+1 > d {
		return nil, fmt.Errorf("systems: grid: b=%d exceeds masking limit (d−1)/3=%d", b, (d-1)/3)
	}
	return &Grid{name: fmt.Sprintf("Grid(d=%d,b=%d)", d, b), d: d, rows: 1, cols: 2*b + 1}, nil
}

// NewMGrid builds M-Grid(b) on a d×d universe. Requires √(b+1) ≤ d and
// the Proposition 5.1 masking condition d − √(b+1) ≥ b (resilience ≥ b).
func NewMGrid(d, b int) (*Grid, error) {
	if b < 0 || d < 1 {
		return nil, fmt.Errorf("systems: m-grid: invalid d=%d b=%d", d, b)
	}
	r := combin.CeilSqrt(b + 1)
	if r > d {
		return nil, fmt.Errorf("systems: m-grid: √(b+1)=%d exceeds side %d", r, d)
	}
	if d-r < b {
		return nil, fmt.Errorf("systems: m-grid: resilience d−√(b+1)=%d below b=%d (Prop 5.1 needs b ≤ (√n−1)/2)", d-r, b)
	}
	return &Grid{name: fmt.Sprintf("M-Grid(d=%d,b=%d)", d, b), d: d, rows: r, cols: r}, nil
}

// Name returns the system's label.
func (g *Grid) Name() string { return g.name }

// UniverseSize returns n = d².
func (g *Grid) UniverseSize() int { return g.d * g.d }

// Side returns d.
func (g *Grid) Side() int { return g.d }

// Lines returns the rows and columns of one quorum.
func (g *Grid) Lines() (rows, cols int) { return g.rows, g.cols }

// SelectQuorum draws its rows and columns uniformly from the fully-live
// ones; with nothing dead that is the fair strategy, with load c/n
// (optimal for M-Grid by Proposition 5.2).
func (g *Grid) SelectQuorum(rng *rand.Rand, dead bitset.Set) (bitset.Set, error) {
	lines := squareLines(g.d)
	q := bitset.New(g.d * g.d)
	if !lines[0].addFree(&q, dead, g.rows, rng) || !lines[1].addFree(&q, dead, g.cols, rng) {
		return bitset.Set{}, core.ErrNoLiveQuorum
	}
	return q, nil
}

// MinQuorumSize returns c = (R + C)·d − R·C for R rows and C columns: the
// lines in full, minus their crossings.
func (g *Grid) MinQuorumSize() int { return (g.rows+g.cols)*g.d - g.rows*g.cols }

// MinIntersection returns IS exactly. A pair sharing j rows and k columns
// meets in j·d + k·d − j·k + 2(R−j)(C−k) elements: the shared lines in
// full, plus each side's private rows crossing the other's private
// columns. Sharing is forced (j ≥ 2R−d, k ≥ 2C−d) when the side is too
// small for disjoint line sets; the minimum over the feasible (j, k) of
// two distinct quorums is IS. A system with one quorum has no such pair,
// and its IS is c.
func (g *Grid) MinIntersection() int {
	d, R, C := g.d, g.rows, g.cols
	best := g.MinQuorumSize()
	for j := max(0, 2*R-d); j <= R; j++ {
		for k := max(0, 2*C-d); k <= C; k++ {
			if j == R && k == C {
				continue // identical quorums, not a pair
			}
			best = min(best, j*d+k*d-j*k+2*(R-j)*(C-k))
		}
	}
	return best
}

// MinTransversal returns MT = d − max(R, C) + 1: the cheapest way to kill
// the system is to touch all but max(R, C) − 1 lines of the axis that
// needs more (d − 2b columns for Grid, d − √(b+1) + 1 rows for M-Grid).
func (g *Grid) MinTransversal() int { return g.d - max(g.rows, g.cols) + 1 }

// MaskingBound applies Corollary 3.7; it is ≥ the declared b by
// construction (Lemma 3.6, Proposition 5.1).
func (g *Grid) MaskingBound() int { return core.MaskingBoundFromParams(g) }

// Load returns the exact load c/n (the system is fair: every element lies
// in the same number of quorums by row/column symmetry, Proposition 3.9).
func (g *Grid) Load() float64 {
	return float64(g.MinQuorumSize()) / float64(g.UniverseSize())
}

// Enumerate materializes the C(d,R)·C(d,C) quorums for exact analysis (LP
// load, strategy-backed selection), row sets outer and column sets inner.
// The quorum count must stay at or below limit (default 100000 when ≤ 0).
func (g *Grid) Enumerate(limit int) (*core.ExplicitSystem, error) {
	if limit <= 0 {
		limit = 100000
	}
	perRow, errR := combin.Binomial(g.d, g.rows)
	perCol, errC := combin.Binomial(g.d, g.cols)
	if errR != nil || errC != nil || perRow > int64(limit) || perCol > int64(limit) || perRow*perCol > int64(limit) {
		return nil, fmt.Errorf("systems: %s: C(%d,%d)·C(%d,%d) quorums exceed limit %d", g.name, g.d, g.rows, g.d, g.cols, limit)
	}
	lines := squareLines(g.d)
	colSets := make([][]int, 0, perCol)
	combin.Combinations(g.d, g.cols, func(cols []int) bool {
		colSets = append(colSets, append([]int(nil), cols...))
		return true
	})
	quorums := make([]bitset.Set, 0, perRow*perCol)
	combin.Combinations(g.d, g.rows, func(rows []int) bool {
		for _, cols := range colSets {
			q := bitset.New(g.d * g.d)
			for _, r := range rows {
				lines[0].add(&q, r)
			}
			for _, c := range cols {
				lines[1].add(&q, c)
			}
			quorums = append(quorums, q)
		}
		return true
	})
	return core.NewExplicit(g.name, g.UniverseSize(), quorums)
}

// CrashLowerBoundRows is the [KC91, Woo96] bound quoted in Section 5.1:
// F_p ≥ (1−(1−p)^d)^d, the probability that every row is hit, which
// already disables the system and tends to 1 as n grows for any fixed
// p > 0. Use the measures package for exact or Monte Carlo values.
func (g *Grid) CrashLowerBoundRows(p float64) float64 {
	rowAlive := math.Pow(1-p, float64(g.d))
	return math.Pow(1-rowAlive, float64(g.d))
}
