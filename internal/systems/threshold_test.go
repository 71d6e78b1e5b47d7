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

func TestThresholdValidation(t *testing.T) {
	if _, err := NewThreshold(5, 0); err == nil {
		t.Error("ℓ=0 should fail")
	}
	if _, err := NewThreshold(5, 6); err == nil {
		t.Error("ℓ>n should fail")
	}
	if _, err := NewThreshold(6, 3); err == nil {
		t.Error("2ℓ ≤ n should fail (disjoint quorums)")
	}
	if _, err := NewThreshold(5, 3); err != nil {
		t.Errorf("3-of-5 rejected: %v", err)
	}
}

func TestMaskingThresholdMR98a(t *testing.T) {
	// n = 4b+1 ⇒ ℓ = 3b+1, IS = 2b+1, MT = b+1, masking bound exactly b.
	for b := 0; b <= 6; b++ {
		n := 4*b + 1
		th, err := NewMaskingThreshold(n, b)
		if err != nil {
			t.Fatalf("b=%d: %v", b, err)
		}
		if th.l != 3*b+1 {
			t.Errorf("b=%d: ℓ = %d, want %d", b, th.l, 3*b+1)
		}
		if th.MinIntersection() != 2*b+1 {
			t.Errorf("b=%d: IS = %d, want %d", b, th.MinIntersection(), 2*b+1)
		}
		if th.MinTransversal() != b+1 {
			t.Errorf("b=%d: MT = %d, want %d", b, th.MinTransversal(), b+1)
		}
		if th.MaskingBound() != b {
			t.Errorf("b=%d: masking bound = %d", b, th.MaskingBound())
		}
		if !core.IsBMasking(th, b) {
			t.Errorf("b=%d: IsBMasking false", b)
		}
	}
	if _, err := NewMaskingThreshold(4, 1); err == nil {
		t.Error("n < 4b+1 should fail")
	}
	if _, err := NewMaskingThreshold(5, -1); err == nil {
		t.Error("negative b should fail")
	}
}

func TestThresholdLoadIsHalfPlus(t *testing.T) {
	// Table 2: Threshold load = 1/2 + O(b/n); always ≥ 1/2.
	for _, c := range []struct{ n, b int }{{9, 2}, {41, 10}, {101, 25}, {1024, 10}} {
		th, err := NewMaskingThreshold(c.n, c.b)
		if err != nil {
			t.Fatal(err)
		}
		l := th.Load()
		if l < 0.5 {
			t.Errorf("n=%d b=%d: load %g < 1/2", c.n, c.b, l)
		}
		approxHalf := 0.5 + float64(c.b)/float64(c.n) + 2.0/float64(c.n)
		if l > approxHalf+1e-9 {
			t.Errorf("n=%d b=%d: load %g exceeds 1/2 + O(b/n) = %g", c.n, c.b, l, approxHalf)
		}
	}
}

func TestThresholdParamsMatchEnumeration(t *testing.T) {
	th, err := NewThreshold(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := th.Enumerate(0)
	if err != nil {
		t.Fatal(err)
	}
	if ex.MinQuorumSize() != th.MinQuorumSize() {
		t.Errorf("c: explicit %d vs closed form %d", ex.MinQuorumSize(), th.MinQuorumSize())
	}
	if ex.MinIntersection() != th.MinIntersection() {
		t.Errorf("IS: explicit %d vs closed form %d", ex.MinIntersection(), th.MinIntersection())
	}
	if ex.MinTransversal() != th.MinTransversal() {
		t.Errorf("MT: explicit %d vs closed form %d", ex.MinTransversal(), th.MinTransversal())
	}
	// Fairness + load via LP agree with ℓ/n.
	load, _, err := measures.Load(ex)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(load-th.Load()) > 1e-6 {
		t.Errorf("LP load %g vs closed form %g", load, th.Load())
	}
}

func TestThresholdCrashExactMatchesEnumeration(t *testing.T) {
	th, _ := NewThreshold(7, 5)
	ex, _ := th.Enumerate(0)
	for _, p := range []float64{0.1, 0.3, 0.5} {
		want, err := measures.CrashProbabilityExact(ex, p)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := th.CrashProbability(p); math.Abs(got-want) > 1e-12 {
			t.Errorf("F_%g = %g, enumeration gives %g", p, got, want)
		}
	}
}

func TestThresholdSelectQuorum(t *testing.T) {
	th, _ := NewMaskingThreshold(9, 2) // ℓ = 7
	rng := rand.New(rand.NewSource(4))
	dead := bitset.FromSlice([]int{0, 5})
	q, err := th.SelectQuorum(rng, dead)
	if err != nil {
		t.Fatal(err)
	}
	if q.Count() != 7 || q.Intersects(dead) {
		t.Fatalf("bad quorum %v", q)
	}
	dead3 := bitset.FromSlice([]int{0, 1, 2})
	if _, err := th.SelectQuorum(rng, dead3); !errors.Is(err, core.ErrNoLiveQuorum) {
		t.Errorf("err = %v, want ErrNoLiveQuorum", err)
	}
}

func TestThresholdEmpiricalLoad(t *testing.T) {
	th, _ := NewMaskingThreshold(9, 2)
	rng := rand.New(rand.NewSource(8))
	got, err := measures.EmpiricalLoad(th, 30000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-th.Load()) > 0.02 {
		t.Errorf("empirical load %g vs analytic %g", got, th.Load())
	}
}

func TestThresholdEnumerateLimit(t *testing.T) {
	th, _ := NewThreshold(30, 16)
	if _, err := th.Enumerate(1000); err == nil {
		t.Error("oversized enumeration should fail")
	}
}

func TestMajority(t *testing.T) {
	m, err := NewMajority(7)
	if err != nil {
		t.Fatal(err)
	}
	if m.l != 4 {
		t.Errorf("majority-7 quorum size = %d, want 4", m.l)
	}
	if m.MinIntersection() != 1 || m.MinTransversal() != 4 {
		t.Errorf("majority-7 IS=%d MT=%d, want 1, 4", m.MinIntersection(), m.MinTransversal())
	}
}

func TestThresholdCrashCondorcet(t *testing.T) {
	// Majority F_p is Condorcet: below 1/2 it vanishes as n grows.
	var prev float64 = 1
	for _, n := range []int{5, 25, 125} {
		m, _ := NewMajority(n)
		fp, _ := m.CrashProbability(0.3)
		if fp >= prev {
			t.Errorf("F_0.3(majority-%d) = %g not decreasing", n, fp)
		}
		prev = fp
	}
	m, _ := NewMajority(125)
	if got, _ := m.CrashProbability(0.7); got < 0.99 {
		t.Errorf("F_0.7(majority-125) = %g, want ≈1", got)
	}
}
