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

func TestRTValidation(t *testing.T) {
	if _, err := NewRT(4, 3, 0); err == nil {
		t.Error("h=0 should fail")
	}
	if _, err := NewRT(4, 2, 2); err == nil {
		t.Error("ℓ ≤ k/2 should fail")
	}
	if _, err := NewRT(3, 3, 2); err == nil {
		t.Error("ℓ = k should fail")
	}
	if _, err := NewRT(4, 3, 40); err == nil {
		t.Error("k^h overflow should fail")
	}
	if _, err := NewRT(4, 3, 2); err != nil {
		t.Errorf("RT(4,3,2) rejected: %v", err)
	}
}

func TestRTProposition53Parameters(t *testing.T) {
	// Proposition 5.3: n = k^h, c = ℓ^h, IS = (2ℓ−k)^h, MT = (k−ℓ+1)^h.
	cases := []struct{ k, l, h int }{{4, 3, 1}, {4, 3, 2}, {4, 3, 3}, {3, 2, 2}, {5, 3, 2}}
	for _, c := range cases {
		r, err := NewRT(c.k, c.l, c.h)
		if err != nil {
			t.Fatal(err)
		}
		if r.UniverseSize() != intPow(c.k, c.h) {
			t.Errorf("RT(%d,%d,%d): n = %d", c.k, c.l, c.h, r.UniverseSize())
		}
		if r.MinQuorumSize() != intPow(c.l, c.h) {
			t.Errorf("RT(%d,%d,%d): c = %d", c.k, c.l, c.h, r.MinQuorumSize())
		}
		if r.MinIntersection() != intPow(2*c.l-c.k, c.h) {
			t.Errorf("RT(%d,%d,%d): IS = %d", c.k, c.l, c.h, r.MinIntersection())
		}
		if r.MinTransversal() != intPow(c.k-c.l+1, c.h) {
			t.Errorf("RT(%d,%d,%d): MT = %d", c.k, c.l, c.h, r.MinTransversal())
		}
	}
}

func TestRT43Figure2Example(t *testing.T) {
	// Section 5.2 worked example: RT(4,3) depth 2 (n=16) has IS = MT = 4 =
	// √n, so b = min((4−1)/2, 3) = 1 — already masking at h=2.
	r, err := NewRT(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.MinIntersection() != 4 || r.MinTransversal() != 4 {
		t.Fatalf("IS=%d MT=%d, want 4,4", r.MinIntersection(), r.MinTransversal())
	}
	if r.MaskingBound() != 1 {
		t.Errorf("masking bound = %d, want 1", r.MaskingBound())
	}
	// Depth 1 (plain 3-of-4) is not even 1-masking: IS = 2 < 3.
	r1, _ := NewRT(4, 3, 1)
	if core.IsBMasking(r1, 1) {
		t.Error("3-of-4 at h=1 must not be 1-masking")
	}
}

func TestRTParamsMatchEnumeration(t *testing.T) {
	r, err := NewRT(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := r.Enumerate(0)
	if err != nil {
		t.Fatal(err)
	}
	if ex.NumQuorums() != 4*4*4*4 { // C(4,3)·(C(4,3)·1)³ = 4·4³
		t.Errorf("quorum count = %d, want 256", ex.NumQuorums())
	}
	if ex.MinQuorumSize() != r.MinQuorumSize() {
		t.Errorf("c: explicit %d vs formula %d", ex.MinQuorumSize(), r.MinQuorumSize())
	}
	if ex.MinIntersection() != r.MinIntersection() {
		t.Errorf("IS: explicit %d vs formula %d", ex.MinIntersection(), r.MinIntersection())
	}
	if ex.MinTransversal() != r.MinTransversal() {
		t.Errorf("MT: explicit %d vs formula %d", ex.MinTransversal(), r.MinTransversal())
	}
	load, _, err := measures.Load(ex)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(load-r.Load()) > 1e-6 {
		t.Errorf("LP load %g vs closed form %g", load, r.Load())
	}
}

func TestRTLoadProposition55(t *testing.T) {
	// L = n^−(1−log_k ℓ): for RT(4,3), n^−0.2075.
	for h := 1; h <= 5; h++ {
		r, _ := NewRT(4, 3, h)
		n := float64(r.UniverseSize())
		want := math.Pow(n, -(1 - math.Log(3)/math.Log(4)))
		if math.Abs(r.Load()-want) > 1e-9 {
			t.Errorf("h=%d: load %g, want %g", h, r.Load(), want)
		}
	}
}

func TestRTCrashExactMatchesEnumeration(t *testing.T) {
	r, _ := NewRT(4, 3, 2)
	ex, _ := r.Enumerate(0)
	for _, p := range []float64{0.1, 0.2324, 0.4} {
		want, err := measures.CrashProbabilityExact(ex, p)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := r.CrashProbability(p); math.Abs(got-want) > 1e-12 {
			t.Errorf("F_%g = %g, enumeration gives %g", p, got, want)
		}
	}
}

func TestRT43BlockCrashPolynomial(t *testing.T) {
	// Section 5.2: g(p) = 6p² − 8p³ + 3p⁴ for the 3-of-4 block.
	r, _ := NewRT(4, 3, 1)
	for _, p := range []float64{0, 0.1, 0.2324, 0.5, 0.9, 1} {
		want := 6*p*p - 8*p*p*p + 3*p*p*p*p
		if got := r.BlockCrash(p); math.Abs(got-want) > 1e-12 {
			t.Errorf("g(%g) = %g, want %g", p, got, want)
		}
	}
}

func TestRT43CriticalProbability(t *testing.T) {
	// The paper computes p_c = 0.2324 for RT(4,3).
	r, _ := NewRT(4, 3, 3)
	pc := r.CriticalProbability()
	if math.Abs(pc-0.2324) > 5e-4 {
		t.Errorf("p_c = %g, want ≈0.2324", pc)
	}
	// Proposition 5.6: below p_c the crash probability shrinks with depth,
	// above it grows.
	below, above := 0.15, 0.35
	var prevB, prevA float64 = -1, -1
	for h := 1; h <= 6; h++ {
		rh, _ := NewRT(4, 3, h)
		fb, _ := rh.CrashProbability(below)
		fa, _ := rh.CrashProbability(above)
		if prevB >= 0 && fb >= prevB {
			t.Errorf("h=%d: F_%g = %g not decreasing (prev %g)", h, below, fb, prevB)
		}
		if prevA >= 0 && fa <= prevA {
			t.Errorf("h=%d: F_%g = %g not increasing (prev %g)", h, above, fa, prevA)
		}
		prevB, prevA = fb, fa
	}
}

func TestRTCrashUpperBoundProp57(t *testing.T) {
	// F_p ≤ (C(k,ℓ−1)·p)^MT for p < 1/C(k,ℓ−1); for RT(4,3): (6p)^√n.
	for _, h := range []int{2, 3, 4} {
		r, _ := NewRT(4, 3, h)
		for _, p := range []float64{0.05, 0.1, 0.15} {
			fp, _ := r.CrashProbability(p)
			bound := r.CrashUpperBound(p)
			if fp > bound+1e-12 {
				t.Errorf("h=%d p=%g: F_p %g exceeds Prop 5.7 bound %g", h, p, fp, bound)
			}
		}
	}
	// Bound degenerates to 1 for p ≥ 1/6.
	r, _ := NewRT(4, 3, 2)
	if r.CrashUpperBound(0.2) != 1 {
		t.Errorf("bound above 1/6 should clamp to 1")
	}
}

func TestRTCrashLowerBoundProp43(t *testing.T) {
	// Proposition 5.7's optimality side: F_p ≥ p^MT.
	for _, h := range []int{1, 2, 3} {
		r, _ := NewRT(4, 3, h)
		for _, p := range []float64{0.1, 0.3} {
			if fp, _ := r.CrashProbability(p); fp < measures.CrashLowerBoundMT(r.MinTransversal(), p)-1e-15 {
				t.Errorf("h=%d p=%g: F_p below p^MT", h, p)
			}
		}
	}
}

func TestRTSelectQuorumRecursive(t *testing.T) {
	r, _ := NewRT(4, 3, 2)
	ex, _ := r.Enumerate(0)
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 100; trial++ {
		dead := bitset.New(16)
		for i := 0; i < 16; i++ {
			if rng.Intn(8) == 0 {
				dead.Add(i)
			}
		}
		q, err := r.SelectQuorum(rng, dead)
		_, exErr := ex.SelectQuorum(rng, dead)
		if (err == nil) != (exErr == nil) {
			t.Fatalf("recursive and explicit disagree on survivability (dead=%v): %v vs %v",
				dead, err, exErr)
		}
		if err != nil {
			continue
		}
		if q.Intersects(dead) {
			t.Fatal("quorum uses dead element")
		}
		// The returned set must be one of the explicit quorums.
		found := false
		for _, eq := range ex.Quorums() {
			if eq.Equal(q) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("selected %v is not an RT quorum", q)
		}
	}
}

func TestRTSelectQuorumFailsPastResilience(t *testing.T) {
	r, _ := NewRT(4, 3, 2) // MT = 4
	rng := rand.New(rand.NewSource(3))
	// Kill one leaf in each depth-1 block of the first two depth-1
	// subtrees: blocks 0 and 1 die (each loses ≥ 2 children? no: one leaf
	// kills a 3-of-4 block only if 2 leaves die). Build a genuine minimal
	// transversal instead: 2 dead leaves in 2 blocks = 4 elements.
	dead := bitset.FromSlice([]int{0, 1, 4, 5}) // blocks 0 and 1 each lose 2 leaves
	// Blocks 0,1 dead → only 2 of 4 children alive < ℓ=3 → system dead.
	if _, err := r.SelectQuorum(rng, dead); !errors.Is(err, core.ErrNoLiveQuorum) {
		t.Errorf("err = %v, want ErrNoLiveQuorum", err)
	}
}

func TestRTFaultFreeQuorumShape(t *testing.T) {
	r, _ := NewRT(4, 3, 3)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 50; i++ {
		q, err := r.SelectQuorum(rng, bitset.Set{})
		if err != nil {
			t.Fatal(err)
		}
		if q.Count() != r.MinQuorumSize() {
			t.Fatalf("sampled quorum size %d, want %d", q.Count(), r.MinQuorumSize())
		}
	}
	got, err := measures.EmpiricalLoad(r, 20000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-r.Load()) > 0.03 {
		t.Errorf("empirical load %g vs analytic %g", got, r.Load())
	}
}

func TestRTCorollary54MaskingGrowth(t *testing.T) {
	// Corollary 5.4 for RT(4,3): b = (√n − 1)/2 eventually — masking grows
	// with depth.
	prev := -1
	for h := 1; h <= 5; h++ {
		r, _ := NewRT(4, 3, h)
		b := r.MaskingBound()
		if b < prev {
			t.Errorf("masking bound decreasing at h=%d: %d < %d", h, b, prev)
		}
		prev = b
		want := (intPow(2, h) - 1) / 2 // ((2ℓ−k)^h − 1)/2 = (2^h−1)/2
		if b != want {
			t.Errorf("h=%d: b = %d, want %d", h, b, want)
		}
	}
}
