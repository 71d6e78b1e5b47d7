package systems

import (
	"fmt"
	"math/rand"

	"bqs/internal/bitset"
	"bqs/internal/combin"
	"bqs/internal/core"
)

// MGrid is the multi-grid construction of Section 5.1: servers in a d×d
// grid, a quorum being √(b+1) full rows together with √(b+1) full columns
// (Figure 1). Two quorums sharing a line meet in ≥ d elements; otherwise
// the row/column crossings give ≥ 2(b+1) > 2b+1 elements, so the system is
// b-masking for b ≤ (√n − 1)/2 (Proposition 5.1). Its load ≈ 2√(b+1)/√n is
// optimal (Proposition 5.2), but F_p → 1 as n → ∞ (the [KC91, Woo96] row
// bound).
type MGrid struct {
	name string
	d, b int
	r    int // lines per direction: ⌈√(b+1)⌉
}

var (
	_ core.System        = (*MGrid)(nil)
	_ core.Parameterized = (*MGrid)(nil)
	_ core.Masking       = (*MGrid)(nil)
	_ core.Enumerator    = (*MGrid)(nil)
)

// NewMGrid builds M-Grid(b) on a d×d universe. Requires √(b+1) ≤ d and
// the Proposition 5.1 masking condition d − √(b+1) ≥ b (resilience ≥ b).
func NewMGrid(d, b int) (*MGrid, error) {
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
	return &MGrid{name: fmt.Sprintf("M-Grid(d=%d,b=%d)", d, b), d: d, b: b, r: r}, nil
}

// Name returns the system's label.
func (m *MGrid) Name() string { return m.name }

// UniverseSize returns n = d².
func (m *MGrid) UniverseSize() int { return m.d * m.d }

// Side returns d; LinesPerAxis returns √(b+1).
func (m *MGrid) Side() int         { return m.d }
func (m *MGrid) LinesPerAxis() int { return m.r }

func (m *MGrid) quorum(rows, cols []int) bitset.Set {
	q := bitset.New(m.d * m.d)
	for _, r := range rows {
		for c := 0; c < m.d; c++ {
			q.Add(r*m.d + c)
		}
	}
	for _, c := range cols {
		for r := 0; r < m.d; r++ {
			q.Add(r*m.d + c)
		}
	}
	return q
}

func (m *MGrid) freeLines(dead bitset.Set, axis int) []int {
	free := make([]int, 0, m.d)
	for line := 0; line < m.d; line++ {
		ok := true
		for k := 0; k < m.d; k++ {
			var v int
			if axis == 0 {
				v = line*m.d + k
			} else {
				v = k*m.d + line
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

// SelectQuorum picks √(b+1) fully-live rows and columns, uniformly; with
// nothing dead that is the fair strategy of Proposition 5.2's optimal load.
func (m *MGrid) SelectQuorum(rng *rand.Rand, dead bitset.Set) (bitset.Set, error) {
	rows := m.freeLines(dead, 0)
	cols := m.freeLines(dead, 1)
	if len(rows) < m.r || len(cols) < m.r {
		return bitset.Set{}, core.ErrNoLiveQuorum
	}
	ri := combin.RandomKSubset(rng, len(rows), m.r)
	ci := combin.RandomKSubset(rng, len(cols), m.r)
	pickRows := make([]int, m.r)
	pickCols := make([]int, m.r)
	for i := range ri {
		pickRows[i] = rows[ri[i]]
		pickCols[i] = cols[ci[i]]
	}
	return m.quorum(pickRows, pickCols), nil
}

// MinQuorumSize returns c = 2rd − r² (r rows + r columns minus crossings).
func (m *MGrid) MinQuorumSize() int { return 2*m.r*m.d - m.r*m.r }

// MinIntersection returns IS exactly. A pair sharing j rows and k columns
// meets in j·d + k·d − j·k + 2(r−j)(r−k) elements; when 2r ≤ d the minimum
// is at j=k=0, the 2r² crossings of Proposition 5.1, otherwise sharing is
// forced (j, k ≥ 2r−d) and the minimum sits on that boundary.
func (m *MGrid) MinIntersection() int {
	r, d := m.r, m.d
	jMin := 2*r - d
	if jMin < 0 {
		jMin = 0
	}
	best := -1
	for j := jMin; j <= r; j++ {
		for k := jMin; k <= r; k++ {
			if j == r && k == r {
				continue // identical quorums
			}
			v := j*d + k*d - j*k + 2*(r-j)*(r-k)
			if best < 0 || v < best {
				best = v
			}
		}
	}
	return best
}

// MinTransversal returns MT = d − √(b+1) + 1 (touch all but r−1 rows).
func (m *MGrid) MinTransversal() int { return m.d - m.r + 1 }

// MaskingBound applies Corollary 3.7; it is ≥ the declared b by
// construction (Proposition 5.1).
func (m *MGrid) MaskingBound() int { return core.MaskingBoundFromParams(m) }

// DeclaredB returns the b the system was built for.
func (m *MGrid) DeclaredB() int { return m.b }

// Load returns the exact load c/n ≈ 2√(b+1)/√n (fair, Proposition 3.9).
func (m *MGrid) Load() float64 {
	return float64(m.MinQuorumSize()) / float64(m.UniverseSize())
}

// Enumerate materializes the C(d,r)² row/column-set quorums for exact
// analysis (LP load, strategy-backed selection). The quorum count must
// stay at or below limit (default 100000 when ≤ 0).
func (m *MGrid) Enumerate(limit int) (*core.ExplicitSystem, error) {
	if limit <= 0 {
		limit = 100000
	}
	per, err := combin.Binomial(m.d, m.r)
	if err != nil || per > int64(limit) || per*per > int64(limit) {
		return nil, fmt.Errorf("systems: %s: C(%d,%d)² quorums exceed limit %d", m.name, m.d, m.r, limit)
	}
	lineSets := make([][]int, 0, per)
	combin.Combinations(m.d, m.r, func(c []int) bool {
		lineSets = append(lineSets, append([]int(nil), c...))
		return true
	})
	quorums := make([]bitset.Set, 0, per*per)
	for _, rows := range lineSets {
		for _, cols := range lineSets {
			quorums = append(quorums, m.quorum(rows, cols))
		}
	}
	return core.NewExplicit(m.name, m.UniverseSize(), quorums)
}

// CrashLowerBoundRows is the [KC91, Woo96] bound quoted in Section 5.1:
// F_p ≥ (1−(1−p)^d)^d — one crash per row disables the system — which
// tends to 1 as n grows for any fixed p > 0.
func (m *MGrid) CrashLowerBoundRows(p float64) float64 {
	rowAlive := pow(1-p, m.d)
	return pow(1-rowAlive, m.d)
}
