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

func TestBoostFPPValidation(t *testing.T) {
	if _, err := NewBoostFPP(6, 1); err == nil {
		t.Error("non-prime-power order should fail")
	}
	if _, err := NewBoostFPP(3, -1); err == nil {
		t.Error("negative b should fail")
	}
	if _, err := NewBoostFPP(2, 1); err != nil {
		t.Errorf("boostFPP(2,1) rejected: %v", err)
	}
}

func TestBoostFPPProposition61Parameters(t *testing.T) {
	for _, c := range []struct{ q, b int }{{2, 1}, {2, 3}, {3, 2}, {3, 19}, {4, 5}} {
		s, err := NewBoostFPP(c.q, c.b)
		if err != nil {
			t.Fatal(err)
		}
		wantN := (4*c.b + 1) * (c.q*c.q + c.q + 1)
		if s.UniverseSize() != wantN {
			t.Errorf("q=%d b=%d: n = %d, want %d", c.q, c.b, s.UniverseSize(), wantN)
		}
		if s.MinQuorumSize() != (3*c.b+1)*(c.q+1) {
			t.Errorf("q=%d b=%d: c = %d", c.q, c.b, s.MinQuorumSize())
		}
		if s.MinIntersection() != 2*c.b+1 {
			t.Errorf("q=%d b=%d: IS = %d", c.q, c.b, s.MinIntersection())
		}
		if s.MinTransversal() != (c.b+1)*(c.q+1) {
			t.Errorf("q=%d b=%d: MT = %d", c.q, c.b, s.MinTransversal())
		}
		if s.MaskingBound() != c.b {
			t.Errorf("q=%d b=%d: masking bound = %d", c.q, c.b, s.MaskingBound())
		}
	}
}

func TestBoostFPPLoadProposition62(t *testing.T) {
	// L ≈ 3/(4q) and within a small constant of the √(2b/n) lower bound.
	for _, c := range []struct{ q, b int }{{3, 5}, {5, 10}, {7, 20}} {
		s, err := NewBoostFPP(c.q, c.b)
		if err != nil {
			t.Fatal(err)
		}
		load := s.Load()
		approx := 3.0 / (4 * float64(c.q))
		if math.Abs(load-approx)/approx > 0.35 {
			t.Errorf("q=%d b=%d: load %g not ≈ 3/4q = %g", c.q, c.b, load, approx)
		}
		lower := measures.GlobalLoadLowerBound(s.UniverseSize(), c.b)
		if load < lower-1e-9 {
			t.Errorf("q=%d b=%d: load below the Cor 4.2 bound (impossible)", c.q, c.b)
		}
		if load > 2.2*lower {
			// Prop 6.2: optimal ≈ 1/(√2 q), so ratio ≈ 3√2/4 ≈ 1.06.
			t.Errorf("q=%d b=%d: load %g not within ≈2× of bound %g", c.q, c.b, load, lower)
		}
	}
}

func TestBoostFPPSelectQuorum(t *testing.T) {
	s, err := NewBoostFPP(2, 1) // n = 5·7 = 35
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(30))
	// Kill one server in each of the first three modules: threshold 4-of-5
	// still survives per module.
	dead := bitset.FromSlice([]int{0, 5, 10})
	q, err := s.SelectQuorum(rng, dead)
	if err != nil {
		t.Fatal(err)
	}
	if q.Intersects(dead) {
		t.Fatal("quorum uses dead element")
	}
	if q.Count() != s.MinQuorumSize() {
		t.Errorf("quorum size %d, want %d", q.Count(), s.MinQuorumSize())
	}
	// Kill 2 of 5 in every module: every module dies (MT_thresh = b+1 = 2).
	deadAll := bitset.New(35)
	for m := 0; m < 7; m++ {
		deadAll.Add(m * 5)
		deadAll.Add(m*5 + 1)
	}
	if _, err := s.SelectQuorum(rng, deadAll); !errors.Is(err, core.ErrNoLiveQuorum) {
		t.Errorf("err = %v, want ErrNoLiveQuorum", err)
	}
}

func TestBoostFPPCrashExactAndBounds(t *testing.T) {
	s, err := NewBoostFPP(2, 2) // plane n=7 ≤ exact cap
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for _, p := range []float64{0.1, 0.2} {
		exact, err := s.CrashProbability(p)
		if err != nil {
			t.Fatal(err)
		}
		// Inequality (6): exact ≤ (q+1)·F_Thresh(p).
		if ub := s.CrashUpperBound(p); exact > ub+1e-12 {
			t.Errorf("p=%g: exact %g exceeds (q+1)·thresh bound %g", p, exact, ub)
		}
		// Monte Carlo agrees with the composed exact value.
		mc, err := measures.CrashProbabilityMC(s, p, 20000, rng)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mc.Estimate-exact) > 5*mc.StdErr+2e-3 {
			t.Errorf("p=%g: MC %g ± %g vs exact %g", p, mc.Estimate, mc.StdErr, exact)
		}
	}
	// Chernoff bound should dominate exact F_p for p < 1/4 and large b.
	big, err := NewBoostFPP(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.05, 0.1, 0.15} {
		exact, err := big.CrashProbability(p)
		if err != nil {
			t.Fatal(err)
		}
		if ch := big.ChernoffUpperBound(p); exact > ch+1e-9 {
			t.Errorf("p=%g: exact %g exceeds Chernoff bound %g", p, exact, ch)
		}
	}
}

func TestBoostFPPCrashExactCapError(t *testing.T) {
	s, err := NewBoostFPP(5, 1) // plane has 31 points > 24
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CrashProbability(0.1); !errors.Is(err, measures.ErrUniverseTooLarge) {
		t.Errorf("err = %v, want ErrUniverseTooLarge", err)
	}
}

func TestBoostFPPScalingPolicies(t *testing.T) {
	// Section 6: fixing q and growing b raises resilience at constant load;
	// fixing b and growing q lowers load at constant masking.
	l1, _ := NewBoostFPP(3, 2)
	l2, _ := NewBoostFPP(3, 20)
	if l2.MaskingBound() <= l1.MaskingBound() {
		t.Error("growing b should raise masking")
	}
	if math.Abs(l1.Load()-l2.Load()) > 0.05 {
		t.Errorf("load should stay ≈ constant: %g vs %g", l1.Load(), l2.Load())
	}
	q1, _ := NewBoostFPP(2, 5)
	q2, _ := NewBoostFPP(8, 5)
	if q2.Load() >= q1.Load() {
		t.Error("growing q should lower load")
	}
	if q1.MaskingBound() != q2.MaskingBound() {
		t.Error("masking should be unchanged when only q grows")
	}
}

func TestMPathValidation(t *testing.T) {
	if _, err := NewMPath(2, 5); err == nil {
		t.Error("√(2b+1) > d should fail")
	}
	if _, err := NewMPath(5, 4); err == nil {
		t.Error("insufficient resilience should fail")
	}
	if _, err := NewMPath(9, 4); err != nil {
		t.Errorf("Figure 3 instance MPath(9,4) rejected: %v", err)
	}
}

func TestMPathFigure3Instance(t *testing.T) {
	// Figure 3: 9×9 grid, b=4 → √(2b+1) = 3 paths per direction.
	m, err := NewMPath(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.r != 3 {
		t.Errorf("paths per axis = %d, want 3", m.r)
	}
	if m.MinTransversal() != 9-3+1 {
		t.Errorf("MT = %d, want 7", m.MinTransversal())
	}
	if !core.IsBMasking(m, 4) {
		t.Error("Figure 3 M-Path should be 4-masking")
	}
}

func TestMPathSelectQuorumProducesDisjointCrossings(t *testing.T) {
	m, _ := NewMPath(9, 4)
	rng := rand.New(rand.NewSource(40))
	dead := bitset.FromSlice([]int{10, 23, 37, 55, 61})
	q, err := m.SelectQuorum(rng, dead)
	if err != nil {
		t.Fatal(err)
	}
	if q.Intersects(dead) {
		t.Fatal("quorum uses dead vertex")
	}
	// Sanity: a quorum always intersects an independently selected one in
	// ≥ 2b+1 elements (the masking property, Definition 3.5).
	q2, err := m.SelectQuorum(rng, bitset.New(81))
	if err != nil {
		t.Fatal(err)
	}
	if got := q.IntersectionCount(q2); got < 2*4+1 {
		t.Errorf("two quorums intersect in %d < 2b+1 = 9 elements", got)
	}
}

func TestMPathMaskingIntersectionProperty(t *testing.T) {
	// Randomized check of Definition 3.5 across failure patterns.
	m, _ := NewMPath(7, 2) // r = ⌈√5⌉ = 3
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		deadA := bitset.New(49)
		deadB := bitset.New(49)
		for i := 0; i < 49; i++ {
			if rng.Intn(12) == 0 {
				deadA.Add(i)
			}
			if rng.Intn(12) == 0 {
				deadB.Add(i)
			}
		}
		qa, errA := m.SelectQuorum(rng, deadA)
		qb, errB := m.SelectQuorum(rng, deadB)
		if errA != nil || errB != nil {
			continue
		}
		if got := qa.IntersectionCount(qb); got < 2*2+1 {
			t.Fatalf("trial %d: |Q1∩Q2| = %d < 5", trial, got)
		}
	}
}

func TestMPathSurvivesHeavyScatteredFailures(t *testing.T) {
	// M-Path's selling point: it survives random failure patterns well past
	// f when p < 1/2. Kill 25% of a 15×15 grid and expect survival with a
	// b=2 quorum (3 paths per axis).
	m, err := NewMPath(15, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	survived := 0
	trials := 20
	for i := 0; i < trials; i++ {
		dead := m.Grid().SampleDead(0.25, rng)
		if _, err := m.SelectQuorum(rng, dead); err == nil {
			survived++
		}
	}
	if survived < trials*3/4 {
		t.Errorf("survived only %d/%d at p=0.25", survived, trials)
	}
}

func TestMPathLoadProposition72(t *testing.T) {
	for _, c := range []struct{ d, b int }{{9, 4}, {16, 6}, {32, 12}} {
		m, err := NewMPath(c.d, c.b)
		if err != nil {
			t.Fatal(err)
		}
		n := float64(m.UniverseSize())
		bound := 2 * math.Sqrt(float64(2*c.b+1)/n)
		if m.Load() > bound+1e-9 {
			t.Errorf("d=%d b=%d: load %g exceeds Prop 7.2 bound %g", c.d, c.b, m.Load(), bound)
		}
		lower := measures.GlobalLoadLowerBound(m.UniverseSize(), c.b)
		if m.Load() < lower-1e-9 {
			t.Errorf("d=%d b=%d: load below Cor 4.2 bound (impossible)", c.d, c.b)
		}
	}
}

func TestMPathEmpiricalLoad(t *testing.T) {
	m, _ := NewMPath(9, 4)
	rng := rand.New(rand.NewSource(43))
	got, err := measures.EmpiricalLoad(m, 20000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-m.Load()) > 0.04 {
		t.Errorf("empirical %g vs analytic %g", got, m.Load())
	}
}

func TestMPathCrashDecaysBelowHalf(t *testing.T) {
	// Proposition 7.3 shape: at fixed p < 1/2, F_p decreases as the grid
	// grows (compare d=6 vs d=12 at p = 0.3 via Monte Carlo).
	rng := rand.New(rand.NewSource(44))
	small, _ := NewMPath(6, 1)
	large, _ := NewMPath(12, 1)
	p := 0.3
	fSmall, err := measures.CrashProbabilityMC(small, p, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	fLarge, err := measures.CrashProbabilityMC(large, p, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	if fLarge.Estimate > fSmall.Estimate+0.05 {
		t.Errorf("F_p grew with n: %g → %g", fSmall.Estimate, fLarge.Estimate)
	}
}

func TestBoostGeneralizesToRegularSystems(t *testing.T) {
	// Section 6's boosting on a majority and on the NW grid.
	maj, err := NewMajority(5)
	if err != nil {
		t.Fatal(err)
	}
	boosted, err := Boost(maj, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Majority-5: c=3, IS=1, MT=3. Thresh(9,7): c=7, IS=5, MT=3.
	if boosted.MinIntersection() != 5 {
		t.Errorf("boosted IS = %d, want 5", boosted.MinIntersection())
	}
	if boosted.MinTransversal() != 9 {
		t.Errorf("boosted MT = %d, want 9", boosted.MinTransversal())
	}
	if boosted.MaskingBound() != 2 {
		t.Errorf("boosted masking = %d, want 2", boosted.MaskingBound())
	}
	if _, err := Boost(maj, -1); err == nil {
		t.Error("negative b should fail")
	}

	grid, err := NewNWGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := Boost(grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	// NWGrid(4): IS=2, MT=4; Thresh(5,4): IS=3, MT=2 → IS=6, MT=8, b=2.
	if bg.MaskingBound() < 1 {
		t.Errorf("boosted grid masking = %d, want ≥ 1", bg.MaskingBound())
	}
	rng := rand.New(rand.NewSource(50))
	q, err := bg.SelectQuorum(rng, bitset.New(bg.UniverseSize()))
	if err != nil {
		t.Fatal(err)
	}
	if q.Empty() {
		t.Error("boosted grid returned empty quorum")
	}
}

func TestNWGridIsGridWithBZero(t *testing.T) {
	g, err := NewNWGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	if g.MinQuorumSize() != 9 { // 2d−1
		t.Errorf("c = %d, want 9", g.MinQuorumSize())
	}
	if g.MinIntersection() != 2 {
		t.Errorf("IS = %d, want 2", g.MinIntersection())
	}
	if g.MinTransversal() != 5 {
		t.Errorf("MT = %d, want 5", g.MinTransversal())
	}
}

func TestFPPAsRegularSystem(t *testing.T) {
	s, err := NewBoostFPP(2, 0) // degenerate boost: thresh 1-of-1
	if err != nil {
		t.Fatal(err)
	}
	// b=0: the composition is the plane itself (each module a single
	// server): n = 7, c = 3, IS = 1, MT = 3.
	if s.UniverseSize() != 7 || s.MinQuorumSize() != 3 || s.MinIntersection() != 1 || s.MinTransversal() != 3 {
		t.Errorf("boostFPP(2,0) params = (%d,%d,%d,%d), want (7,3,1,3)",
			s.UniverseSize(), s.MinQuorumSize(), s.MinIntersection(), s.MinTransversal())
	}
}
