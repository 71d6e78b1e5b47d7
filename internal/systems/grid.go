package systems

import (
	"fmt"
	"math/rand"

	"bqs/internal/bitset"
	"bqs/internal/combin"
	"bqs/internal/core"
)

// Grid is the b-masking grid of [MR98a], the second baseline in Table 2:
// servers arranged in a d×d grid, a quorum being one full row together
// with 2b+1 full columns. Any two quorums intersect in ≥ 2b+1 elements
// (each quorum's columns cross the other's row). The paper cites its
// properties as b < √n/3, f = O(√n − b), L ≈ 2b/√n and F_p → 1.
type Grid struct {
	name string
	d, b int
}

var (
	_ core.System        = (*Grid)(nil)
	_ core.Parameterized = (*Grid)(nil)
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
	return &Grid{name: fmt.Sprintf("Grid(d=%d,b=%d)", d, b), d: d, b: b}, nil
}

// Name returns the system's label.
func (g *Grid) Name() string { return g.name }

// UniverseSize returns n = d².
func (g *Grid) UniverseSize() int { return g.d * g.d }

// Side returns d.
func (g *Grid) Side() int { return g.d }

// quorum assembles row r union the given columns.
func (g *Grid) quorum(row int, cols []int) bitset.Set {
	q := bitset.New(g.d * g.d)
	for c := 0; c < g.d; c++ {
		q.Add(row*g.d + c)
	}
	for _, c := range cols {
		for r := 0; r < g.d; r++ {
			q.Add(r*g.d + c)
		}
	}
	return q
}

// freeLines returns the indices of rows (axis=0) or columns (axis=1) that
// contain no dead element.
func (g *Grid) freeLines(dead bitset.Set, axis int) []int {
	free := make([]int, 0, g.d)
	for line := 0; line < g.d; line++ {
		ok := true
		for k := 0; k < g.d; k++ {
			var v int
			if axis == 0 {
				v = line*g.d + k
			} else {
				v = k*g.d + line
			}
			if dead.Contains(v) {
				ok = false
				break
			}
		}
		if ok {
			free = append(free, line)
		}
	}
	return free
}

// SelectQuorum picks a fully-live row and 2b+1 fully-live columns,
// uniformly; with nothing dead that is the fair strategy, with load c/n.
func (g *Grid) SelectQuorum(rng *rand.Rand, dead bitset.Set) (bitset.Set, error) {
	rows := g.freeLines(dead, 0)
	cols := g.freeLines(dead, 1)
	need := 2*g.b + 1
	if len(rows) == 0 || len(cols) < need {
		return bitset.Set{}, core.ErrNoLiveQuorum
	}
	row := rows[rng.Intn(len(rows))]
	chosen := combin.RandomKSubset(rng, len(cols), need)
	pick := make([]int, need)
	for i, ci := range chosen {
		pick[i] = cols[ci]
	}
	return g.quorum(row, pick), nil
}

// MinQuorumSize returns c = d + (2b+1)(d−1): one row plus 2b+1 columns,
// minus the crossings.
func (g *Grid) MinQuorumSize() int { return g.d + (2*g.b+1)*(g.d-1) }

// MinIntersection returns IS exactly. A pair of quorums sharing s ∈ {0,1}
// rows and k columns intersects in s·d + k·d − s·k + 2(1−s)(c−k) elements
// (shared lines in full, plus each side's private columns crossing the
// other's row). k is forced to at least 2c−d when the side is too small
// for disjoint column sets; minimizing over feasible (s, k) gives IS.
func (g *Grid) MinIntersection() int {
	c := 2*g.b + 1
	kMin := 2*c - g.d
	if kMin < 0 {
		kMin = 0
	}
	best := -1
	for s := 0; s <= 1; s++ {
		for k := kMin; k <= c; k++ {
			if s == 1 && k == c {
				continue // identical quorums, not a pair
			}
			v := s*g.d + k*g.d - s*k + 2*(1-s)*(c-k)
			if best < 0 || v < best {
				best = v
			}
		}
	}
	return best
}

// MinTransversal returns MT = d − 2b: the cheapest way to kill the system
// is to touch all but 2b columns (touching every row costs d ≥ d−2b).
func (g *Grid) MinTransversal() int { return g.d - 2*g.b }

// MaskingBound applies Corollary 3.7; by construction it equals b... the
// paper's b, unless d is large enough that IS allows more, in which case
// the transversal term binds.
func (g *Grid) MaskingBound() int { return core.MaskingBoundFromParams(g) }

// DeclaredB returns the b the grid was built for.
func (g *Grid) DeclaredB() int { return g.b }

// Load returns the exact load c/n (the system is fair: every element lies
// in the same number of quorums by row/column symmetry).
func (g *Grid) Load() float64 {
	return float64(g.MinQuorumSize()) / float64(g.UniverseSize())
}

// Enumerate materializes the d·C(d,2b+1) row-plus-columns quorums for
// exact analysis (LP load, strategy-backed selection). The quorum count
// must stay at or below limit (default 100000 when ≤ 0).
func (g *Grid) Enumerate(limit int) (*core.ExplicitSystem, error) {
	if limit <= 0 {
		limit = 100000
	}
	need := 2*g.b + 1
	per, err := combin.Binomial(g.d, need)
	if err != nil || per > int64(limit) || int64(g.d)*per > int64(limit) {
		return nil, fmt.Errorf("systems: %s: %d·C(%d,%d) quorums exceed limit %d", g.name, g.d, g.d, need, limit)
	}
	quorums := make([]bitset.Set, 0, int64(g.d)*per)
	for row := 0; row < g.d; row++ {
		combin.Combinations(g.d, need, func(cols []int) bool {
			quorums = append(quorums, g.quorum(row, cols))
			return true
		})
	}
	return core.NewExplicit(g.name, g.UniverseSize(), quorums)
}

// CrashProbability returns the exact F_p via line-survival analysis: the
// system survives iff ≥ 1 row and ≥ 2b+1 columns are fully alive. Rows and
// columns are not independent, so this computes the joint probability by
// Monte Carlo-free approximation... no: exactly, via inclusion–exclusion
// over column subsets, which is exponential. Instead the well-known bound
// of [KC91, Woo96] is exposed as CrashLowerBoundRows; use the measures
// package for exact/MC values.
//
// CrashLowerBoundRows returns (1−(1−p)^d)^d: the probability that every
// row is hit, which already forces failure and drives F_p → 1.
func (g *Grid) CrashLowerBoundRows(p float64) float64 {
	rowAlive := pow(1-p, g.d)
	return pow(1-rowAlive, g.d)
}

func pow(x float64, k int) float64 {
	out := 1.0
	for i := 0; i < k; i++ {
		out *= x
	}
	return out
}
