package compose

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"bqs/internal/bitset"
	"bqs/internal/core"
	"bqs/internal/measures"
)

func majority3(t *testing.T) *core.ExplicitSystem {
	t.Helper()
	s, err := core.NewExplicit("maj3", 3, []bitset.Set{
		bitset.FromSlice([]int{0, 1}),
		bitset.FromSlice([]int{0, 2}),
		bitset.FromSlice([]int{1, 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func threeOfFour(t *testing.T) *core.ExplicitSystem {
	t.Helper()
	var quorums []bitset.Set
	for skip := 0; skip < 4; skip++ {
		q := bitset.FromRange(0, 4)
		q.Remove(skip)
		quorums = append(quorums, q)
	}
	s, err := core.NewExplicit("3of4", 4, quorums)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExplicitCompositionParameters(t *testing.T) {
	// Theorem 4.7 on maj3 ∘ maj3: n=9, c=4, IS=1, MT=4.
	m := majority3(t)
	comp, err := Explicit(m, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if comp.UniverseSize() != 9 {
		t.Errorf("n = %d, want 9", comp.UniverseSize())
	}
	if comp.NumQuorums() != 27 { // 3 outer quorums × 3² inner choices
		t.Errorf("|Q| = %d, want 27", comp.NumQuorums())
	}
	if got := comp.MinQuorumSize(); got != 4 {
		t.Errorf("c = %d, want 4", got)
	}
	if got := comp.MinIntersection(); got != 1 {
		t.Errorf("IS = %d, want 1", got)
	}
	if got := comp.MinTransversal(); got != 4 {
		t.Errorf("MT = %d, want 4", got)
	}
}

func TestExplicitCompositionLoadMultiplies(t *testing.T) {
	// L(maj3 ∘ maj3) = (2/3)² = 4/9 by Theorem 4.7; verify with the LP.
	m := majority3(t)
	comp, err := Explicit(m, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	load, _, err := measures.Load(comp)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(load-4.0/9) > 1e-6 {
		t.Errorf("composed load = %g, want 4/9", load)
	}
}

func TestExplicitCompositionCrashComposes(t *testing.T) {
	// F_p(S∘R) = s(r(p)) exactly (Theorem 4.7), checked against the 2^n
	// enumeration of the composed system.
	m := majority3(t)
	comp, err := Explicit(m, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	mCrash := func(p float64) float64 { return 3*p*p*(1-p) + p*p*p }
	composed := Crash(mCrash, mCrash)
	for _, p := range []float64{0.1, 0.3, 0.5, 0.8} {
		want := composed(p)
		got, err := measures.CrashProbabilityExact(comp, p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("F_%g = %g, want s(r(p)) = %g", p, got, want)
		}
	}
}

func TestExplicitCompositionMixed(t *testing.T) {
	// maj3 ∘ 3of4: n = 12, c = 2·3 = 6, IS = 1·2 = 2, MT = 2·2 = 4.
	comp, err := Explicit(majority3(t), threeOfFour(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if comp.UniverseSize() != 12 || comp.MinQuorumSize() != 6 ||
		comp.MinIntersection() != 2 || comp.MinTransversal() != 4 {
		t.Errorf("params (n,c,IS,MT) = (%d,%d,%d,%d), want (12,6,2,4)",
			comp.UniverseSize(), comp.MinQuorumSize(), comp.MinIntersection(), comp.MinTransversal())
	}
}

func TestExplicitLimit(t *testing.T) {
	m := majority3(t)
	if _, err := Explicit(m, m, 10); !errors.Is(err, ErrTooManyQuorums) {
		t.Errorf("err = %v, want ErrTooManyQuorums", err)
	}
}

func TestCompositeMatchesExplicitOnSelection(t *testing.T) {
	m := majority3(t)
	lazy := New(m, m)
	explicit, err := Explicit(m, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lazy.UniverseSize() != explicit.UniverseSize() {
		t.Fatal("universe mismatch")
	}
	rng := rand.New(rand.NewSource(9))
	// Lazy selection must return sets that are quorums of the explicit
	// composition (supersets suffice: same construction, so equality).
	for trial := 0; trial < 200; trial++ {
		dead := bitset.New(9)
		for i := 0; i < 9; i++ {
			if rng.Intn(4) == 0 {
				dead.Add(i)
			}
		}
		lq, lerr := lazy.SelectQuorum(rng, dead)
		_, eerr := explicit.SelectQuorum(rng, dead)
		if (lerr == nil) != (eerr == nil) {
			t.Fatalf("trial %d: lazy err %v vs explicit err %v (dead=%v)", trial, lerr, eerr, dead)
		}
		if lerr != nil {
			continue
		}
		if lq.Intersects(dead) {
			t.Fatalf("lazy quorum intersects dead set")
		}
		found := false
		for _, q := range explicit.Quorums() {
			if q.Equal(lq) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("lazy quorum %v is not a quorum of the explicit composition", lq)
		}
	}
}

func TestCompositeParameters(t *testing.T) {
	lazy := New(majority3(t), threeOfFour(t))
	if lazy.MinQuorumSize() != 6 || lazy.MinIntersection() != 2 || lazy.MinTransversal() != 4 {
		t.Errorf("lazy params = (%d,%d,%d), want (6,2,4)",
			lazy.MinQuorumSize(), lazy.MinIntersection(), lazy.MinTransversal())
	}
	if got := lazy.MaskingBound(); got != 0 {
		// IS=2 → (2−1)/2 = 0.
		t.Errorf("masking bound = %d, want 0", got)
	}
	if lazy.Name() != "maj3∘3of4" {
		t.Errorf("name = %q", lazy.Name())
	}
}

func TestCompositeFaultFreeQuorumIsQuorum(t *testing.T) {
	m := majority3(t)
	lazy := New(m, m)
	explicit, _ := Explicit(m, m, 0)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		q, err := lazy.SelectQuorum(rng, bitset.Set{})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, eq := range explicit.Quorums() {
			if eq.Equal(q) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("sampled %v is not a composed quorum", q)
		}
	}
}

func TestCompositeCrashMCMatchesComposedFn(t *testing.T) {
	m := majority3(t)
	lazy := New(m, m)
	rng := rand.New(rand.NewSource(13))
	mCrash := func(p float64) float64 { return 3*p*p*(1-p) + p*p*p }
	p := 0.3
	want := Crash(mCrash, mCrash)(p)
	mc, err := measures.CrashProbabilityMC(lazy, p, 100000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mc.Estimate-want) > 5*mc.StdErr+1e-3 {
		t.Errorf("MC = %g ± %g, want %g", mc.Estimate, mc.StdErr, want)
	}
}
