package systems

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"bqs/internal/bitset"
	"bqs/internal/core"
	"bqs/internal/measures"
)

// enumerateGrid materializes all Grid or M-Grid quorums for exact
// cross-checks via the production Enumerate method, so every parameter
// cross-check below also validates the enumeration the strategy-backed
// picker consumes.
func enumerateGrid(t *testing.T, g *Grid) *core.ExplicitSystem {
	t.Helper()
	ex, err := g.Enumerate(0)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func TestGridValidation(t *testing.T) {
	if _, err := NewGrid(0, 0); err == nil {
		t.Error("d=0 should fail")
	}
	if _, err := NewGrid(4, -1); err == nil {
		t.Error("b<0 should fail")
	}
	if _, err := NewGrid(4, 2); err == nil {
		t.Error("2b+1 > d should fail")
	}
	if _, err := NewGrid(6, 2); err == nil {
		t.Error("b > (d−1)/3 should fail")
	}
	if _, err := NewGrid(7, 2); err != nil {
		t.Errorf("Grid(7,2) rejected: %v", err)
	}
}

func TestGridParamsMatchEnumeration(t *testing.T) {
	g, err := NewGrid(4, 1) // n=16, 1 row + 3 cols
	if err != nil {
		t.Fatal(err)
	}
	ex := enumerateGrid(t, g)
	if ex.MinQuorumSize() != g.MinQuorumSize() {
		t.Errorf("c: explicit %d vs formula %d", ex.MinQuorumSize(), g.MinQuorumSize())
	}
	if ex.MinIntersection() != g.MinIntersection() {
		t.Errorf("IS: explicit %d vs formula %d", ex.MinIntersection(), g.MinIntersection())
	}
	if ex.MinTransversal() != g.MinTransversal() {
		t.Errorf("MT: explicit %d vs formula %d", ex.MinTransversal(), g.MinTransversal())
	}
	if !core.IsBMasking(ex, 1) {
		t.Error("Grid(4,1) should be 1-masking")
	}
}

func TestGridLoadMatchesLP(t *testing.T) {
	g, _ := NewGrid(4, 1)
	ex := enumerateGrid(t, g)
	load, _, err := measures.Load(ex)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(load-g.Load()) > 1e-6 {
		t.Errorf("LP load %g vs closed form %g", load, g.Load())
	}
}

func TestGridSelectQuorum(t *testing.T) {
	g, _ := NewGrid(7, 2)
	rng := rand.New(rand.NewSource(6))
	dead := bitset.FromSlice([]int{0, 8}) // kills rows 0–1 and cols 0–1; 5 free cols remain
	q, err := g.SelectQuorum(rng, dead)
	if err != nil {
		t.Fatal(err)
	}
	if q.Intersects(dead) {
		t.Fatal("quorum uses dead element")
	}
	// Killing one element per row leaves no free row.
	deadRows := bitset.New(49)
	for r := 0; r < 7; r++ {
		deadRows.Add(r*7 + (r % 7))
	}
	if _, err := g.SelectQuorum(rng, deadRows); !errors.Is(err, core.ErrNoLiveQuorum) {
		t.Errorf("err = %v, want ErrNoLiveQuorum", err)
	}
}

func TestGridCrashLowerBoundRows(t *testing.T) {
	// The row bound must actually lower-bound the measured F_p.
	g, _ := NewGrid(4, 1)
	ex := enumerateGrid(t, g)
	for _, p := range []float64{0.2, 0.4} {
		exact, err := measures.CrashProbabilityExact(ex, p)
		if err != nil {
			t.Fatal(err)
		}
		if bound := g.CrashLowerBoundRows(p); exact < bound-1e-9 {
			t.Errorf("p=%g: exact F_p %g below row bound %g", p, exact, bound)
		}
	}
}

func TestMGridValidation(t *testing.T) {
	if _, err := NewMGrid(2, 8); err == nil {
		t.Error("√(b+1) > d should fail")
	}
	if _, err := NewMGrid(4, 1); err != nil {
		t.Errorf("MGrid(4,1) rejected: %v", err)
	}
	// Prop 5.1's own range: d=4 admits b ≤ (√n−1)/2; b=3 has resilience
	// d−√(b+1) = 2 < b and must be rejected.
	if _, err := NewMGrid(4, 3); err == nil {
		t.Error("MGrid(4,3) violates Prop 5.1 resilience and should fail")
	}
	if _, err := NewMGrid(5, 4); err == nil {
		// r = ⌈√5⌉ = 3, d−r = 2 < 4: fails resilience.
		t.Error("insufficient resilience should fail")
	}
	if _, err := NewMGrid(7, 3); err != nil {
		t.Errorf("Figure 1 instance MGrid(7,3) rejected: %v", err)
	}
}

func TestMGridFigure1Instance(t *testing.T) {
	// Figure 1: n = 7×7, b = 3 → quorums of √(b+1) = 2 rows + 2 cols.
	m, err := NewMGrid(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rows, cols := m.Lines(); rows != 2 || cols != 2 {
		t.Errorf("lines = %d rows, %d columns, want 2 and 2", rows, cols)
	}
	if m.MinQuorumSize() != 2*2*7-4 { // 24
		t.Errorf("c = %d, want 24", m.MinQuorumSize())
	}
	if m.MinTransversal() != 7-2+1 {
		t.Errorf("MT = %d, want 6", m.MinTransversal())
	}
	if m.MaskingBound() < 3 {
		t.Errorf("masking bound = %d, want ≥ 3", m.MaskingBound())
	}
	if !core.IsBMasking(m, 3) {
		t.Error("Figure 1 M-Grid should be 3-masking")
	}
}

// TestEnumerateCountsAndLimit pins the quorum counts of the Enumerate
// methods and their limit guards.
func TestEnumerateCountsAndLimit(t *testing.T) {
	g, err := NewGrid(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ex := enumerateGrid(t, g); ex.NumQuorums() != 16 { // d·C(d,2b+1) = 4·4
		t.Errorf("Grid(4,1) enumerates %d quorums, want 16", ex.NumQuorums())
	}
	if _, err := g.Enumerate(10); err == nil {
		t.Error("Grid Enumerate must respect the limit")
	}
	m, err := NewMGrid(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ex := enumerateGrid(t, m); ex.NumQuorums() != 36 { // C(4,2)²
		t.Errorf("M-Grid(4,1) enumerates %d quorums, want 36", ex.NumQuorums())
	}
	if _, err := m.Enumerate(10); err == nil {
		t.Error("MGrid Enumerate must respect the limit")
	}
}

func TestMGridParamsMatchEnumeration(t *testing.T) {
	m, err := NewMGrid(4, 1) // r=2, n=16, 36 quorums
	if err != nil {
		t.Fatal(err)
	}
	ex := enumerateGrid(t, m)
	if ex.MinQuorumSize() != m.MinQuorumSize() {
		t.Errorf("c: explicit %d vs formula %d", ex.MinQuorumSize(), m.MinQuorumSize())
	}
	if ex.MinIntersection() != m.MinIntersection() {
		t.Errorf("IS: explicit %d vs formula %d", ex.MinIntersection(), m.MinIntersection())
	}
	if ex.MinTransversal() != m.MinTransversal() {
		t.Errorf("MT: explicit %d vs formula %d", ex.MinTransversal(), m.MinTransversal())
	}
	load, _, err := measures.Load(ex)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(load-m.Load()) > 1e-6 {
		t.Errorf("LP load %g vs closed form %g", load, m.Load())
	}
}

func TestMGridLoadOptimalityProp52(t *testing.T) {
	// Prop 5.2 remark: load is within √2 of the Corollary 4.2 lower bound.
	for _, c := range []struct{ d, b int }{{7, 3}, {16, 8}, {32, 15}} {
		m, err := NewMGrid(c.d, c.b)
		if err != nil {
			t.Fatal(err)
		}
		lower := measures.GlobalLoadLowerBound(m.UniverseSize(), c.b)
		if m.Load() < lower-1e-9 {
			t.Errorf("d=%d b=%d: load %g below lower bound %g (impossible)", c.d, c.b, m.Load(), lower)
		}
		if m.Load() > math.Sqrt2*lower*1.3 {
			t.Errorf("d=%d b=%d: load %g not within ≈√2 of bound %g", c.d, c.b, m.Load(), lower)
		}
	}
}

func TestMGridSelectQuorumUnderFailures(t *testing.T) {
	m, _ := NewMGrid(7, 3)
	rng := rand.New(rand.NewSource(10))
	// Kill 3 scattered elements: rows 0–2 and cols 0–2 unusable, plenty left.
	dead := bitset.FromSlice([]int{0, 7 + 1, 2*7 + 2})
	q, err := m.SelectQuorum(rng, dead)
	if err != nil {
		t.Fatal(err)
	}
	if q.Intersects(dead) {
		t.Fatal("quorum uses dead element")
	}
	// One dead element per row → no free rows → no quorum.
	allRows := bitset.New(49)
	for r := 0; r < 7; r++ {
		allRows.Add(r * 7)
	}
	if _, err := m.SelectQuorum(rng, allRows); !errors.Is(err, core.ErrNoLiveQuorum) {
		t.Errorf("err = %v, want ErrNoLiveQuorum", err)
	}
}

func TestMGridCrashGoesToOne(t *testing.T) {
	// Section 5.1: F_p(M-Grid) ≥ (1−(1−p)^√n)^√n → 1. The row lower bound
	// must increase with d at fixed p and approach 1.
	p := 0.15
	var prev float64
	for _, d := range []int{8, 16, 32, 64} {
		m, err := NewMGrid(d, 3)
		if err != nil {
			t.Fatal(err)
		}
		bound := m.CrashLowerBoundRows(p)
		if bound < prev {
			t.Errorf("row bound not increasing at d=%d: %g < %g", d, bound, prev)
		}
		prev = bound
	}
	if prev < 0.9 {
		t.Errorf("row bound at d=64 = %g, want → 1", prev)
	}
}

func TestMGridEmpiricalLoadMatches(t *testing.T) {
	m, _ := NewMGrid(7, 3)
	rng := rand.New(rand.NewSource(20))
	got, err := measures.EmpiricalLoad(m, 20000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-m.Load()) > 0.03 {
		t.Errorf("empirical %g vs analytic %g", got, m.Load())
	}
}

// TestGridFormulasMatchEnumeration holds the closed-form c, IS and MT of
// both rows-and-columns constructions to their enumerated quorums at every
// b each accepts, from the one-quorum grid at d = 1 (whose IS is c, not a
// pair's) up to Figure 1's side.
func TestGridFormulasMatchEnumeration(t *testing.T) {
	for _, c := range []struct {
		kind  string
		build func(d, b int) (*Grid, error)
	}{{"grid", NewGrid}, {"mgrid", NewMGrid}} {
		for _, d := range []int{1, 2, 4, 7} {
			for b := 0; ; b++ {
				g, err := c.build(d, b)
				if err != nil {
					break
				}
				ex := enumerateGrid(t, g)
				type check struct {
					name          string
					formula, want int
				}
				checks := []check{
					{"c", g.MinQuorumSize(), ex.MinQuorumSize()},
					{"IS", g.MinIntersection(), ex.MinIntersection()},
				}
				if d <= 4 { // the exact transversal search takes minutes at n = 49
					checks = append(checks, check{"MT", g.MinTransversal(), ex.MinTransversal()})
				}
				for _, p := range checks {
					if p.formula != p.want {
						t.Errorf("%s d=%d b=%d: %s formula %d, enumeration %d", c.kind, d, b, p.name, p.formula, p.want)
					}
				}
			}
		}
	}
}
