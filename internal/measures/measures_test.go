package measures

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"bqs/internal/bitset"
	"bqs/internal/core"
)

func explicit(t *testing.T, name string, n int, elems ...[]int) *core.ExplicitSystem {
	t.Helper()
	sets := make([]bitset.Set, len(elems))
	for i, e := range elems {
		sets[i] = bitset.FromSlice(e)
	}
	s, err := core.NewExplicit(name, n, sets)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func majority3(t *testing.T) *core.ExplicitSystem {
	return explicit(t, "maj3", 3, []int{0, 1}, []int{0, 2}, []int{1, 2})
}

func wheel5(t *testing.T) *core.ExplicitSystem {
	return explicit(t, "wheel5", 5,
		[]int{0, 1}, []int{0, 2}, []int{0, 3}, []int{0, 4}, []int{1, 2, 3, 4})
}

func fano(t *testing.T) *core.ExplicitSystem {
	return explicit(t, "fano", 7,
		[]int{0, 1, 2}, []int{0, 3, 4}, []int{0, 5, 6},
		[]int{1, 3, 5}, []int{1, 4, 6}, []int{2, 3, 6}, []int{2, 4, 5})
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLoadMajority(t *testing.T) {
	load, strat, err := Load(majority3(t))
	if err != nil {
		t.Fatal(err)
	}
	if !approx(load, 2.0/3, 1e-9) {
		t.Errorf("load = %g, want 2/3", load)
	}
	// The optimal strategy must actually induce that load.
	if got := strat.InducedSystemLoad(majority3(t)); !approx(got, 2.0/3, 1e-9) {
		t.Errorf("strategy induces %g, want 2/3", got)
	}
}

func TestLoadWheel(t *testing.T) {
	load, _, err := Load(wheel5(t))
	if err != nil {
		t.Fatal(err)
	}
	if !approx(load, 4.0/7, 1e-9) {
		t.Errorf("wheel load = %g, want 4/7", load)
	}
}

func TestLoadFano(t *testing.T) {
	load, _, err := Load(fano(t))
	if err != nil {
		t.Fatal(err)
	}
	if !approx(load, 3.0/7, 1e-9) {
		t.Errorf("fano load = %g, want 3/7", load)
	}
}

func TestLoadFairMatchesLP(t *testing.T) {
	for _, sys := range []*core.ExplicitSystem{majority3(t), fano(t)} {
		viaFair, err := LoadFair(sys)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		viaLP, _, err := Load(sys)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(viaFair, viaLP, 1e-9) {
			t.Errorf("%s: fair %g vs LP %g", sys.Name(), viaFair, viaLP)
		}
	}
}

func TestLoadFairRejectsUnfair(t *testing.T) {
	if _, err := LoadFair(wheel5(t)); !errors.Is(err, ErrNotFair) {
		t.Errorf("err = %v, want ErrNotFair", err)
	}
}

func TestEmpiricalLoadMatchesUniform(t *testing.T) {
	// Majority-3 with the built-in uniform sampler: every element hit with
	// probability 2/3 per access.
	rng := rand.New(rand.NewSource(11))
	got, err := EmpiricalLoad(majority3(t), 50000, rng)
	if err != nil || !approx(got, 2.0/3, 0.01) {
		t.Errorf("empirical load = %g, %v, want ≈2/3", got, err)
	}
	if got, err := EmpiricalLoad(majority3(t), 0, rng); got != 0 || err != nil {
		t.Errorf("zero trials = %g, %v, want 0", got, err)
	}
	// With nothing dead a failed pick is a broken construction: surfaced,
	// not counted as an empty quorum.
	if _, err := EmpiricalLoad(noQuorum{majority3(t)}, 10, rng); !errors.Is(err, core.ErrNoLiveQuorum) {
		t.Errorf("broken picker: err = %v, want ErrNoLiveQuorum", err)
	}
}

// noQuorum is a construction whose picker fails with nothing dead.
type noQuorum struct{ core.System }

func (noQuorum) SelectQuorum(*rand.Rand, bitset.Set) (bitset.Set, error) {
	return bitset.Set{}, core.ErrNoLiveQuorum
}

func TestLoadLowerBoundTheorem41(t *testing.T) {
	// For the 3b+1-of-4b+1 threshold with b=1 (4-of-5): c=4, n=5, b=1.
	// Bound = max{3/4, 4/5} = 0.8 and true load = 4/5 (fair).
	if got := LoadLowerBound(5, 1, 4); !approx(got, 0.8, 1e-12) {
		t.Errorf("bound = %g, want 0.8", got)
	}
	// Corollary 4.2 is never above Theorem 4.1's bound at the optimizing c.
	for _, n := range []int{25, 100, 1024} {
		for _, b := range []int{0, 1, 3} {
			c := int(math.Sqrt(float64((2*b + 1) * n)))
			if GlobalLoadLowerBound(n, b) > LoadLowerBound(n, b, c)+1e-9 {
				t.Errorf("n=%d b=%d: global bound exceeds specific bound", n, b)
			}
		}
	}
	if LoadLowerBound(0, 1, 0) != 0 || GlobalLoadLowerBound(0, 1) != 0 {
		t.Error("degenerate inputs should produce 0")
	}
}

func TestCrashExactMajority(t *testing.T) {
	// Majority-3 crashes iff ≥ 2 of 3 crash: F_p = 3p²(1−p) + p³.
	sys := majority3(t)
	for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.9, 1} {
		want := 3*p*p*(1-p) + p*p*p
		got, err := CrashProbabilityExact(sys, p)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(got, want, 1e-12) {
			t.Errorf("F_%g = %g, want %g", p, got, want)
		}
	}
}

func TestCrashExactSingleton(t *testing.T) {
	sys := explicit(t, "solo", 1, []int{0})
	got, err := CrashProbabilityExact(sys, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 0.3, 1e-12) {
		t.Errorf("singleton F_p = %g, want 0.3", got)
	}
}

func TestCrashExactValidation(t *testing.T) {
	sys := majority3(t)
	if _, err := CrashProbabilityExact(sys, -0.1); err == nil {
		t.Error("p<0 should fail")
	}
	if _, err := CrashProbabilityExact(sys, 1.1); err == nil {
		t.Error("p>1 should fail")
	}
	big := explicit(t, "big", 30, []int{0, 29})
	if _, err := CrashProbabilityExact(big, 0.5); !errors.Is(err, ErrUniverseTooLarge) {
		t.Errorf("err = %v, want ErrUniverseTooLarge", err)
	}
}

func TestCrashMCMatchesExact(t *testing.T) {
	sys := majority3(t)
	rng := rand.New(rand.NewSource(5))
	p := 0.3
	exact, _ := CrashProbabilityExact(sys, p)
	mc, err := CrashProbabilityMC(sys, p, 200000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mc.Estimate-exact) > 5*mc.StdErr+1e-9 {
		t.Errorf("MC = %g ± %g, exact = %g", mc.Estimate, mc.StdErr, exact)
	}
	if mc.Trials != 200000 || mc.Failures < 0 {
		t.Error("MC bookkeeping wrong")
	}
}

func TestCrashMCValidation(t *testing.T) {
	sys := majority3(t)
	rng := rand.New(rand.NewSource(5))
	if _, err := CrashProbabilityMC(sys, 0.5, 0, rng); err == nil {
		t.Error("0 trials should fail")
	}
	if _, err := CrashProbabilityMC(sys, -1, 10, rng); err == nil {
		t.Error("bad p should fail")
	}
}

func TestCrashLowerBoundsHold(t *testing.T) {
	// Majority-3: MT = 2, c = 2, b = 0, IS = 1. Prop 4.3: F_p ≥ p².
	sys := majority3(t)
	for _, p := range []float64{0.1, 0.3, 0.5} {
		fp, _ := CrashProbabilityExact(sys, p)
		if fp < CrashLowerBoundMT(sys.MinTransversal(), p)-1e-12 {
			t.Errorf("Prop 4.3 violated at p=%g", p)
		}
		if fp < CrashLowerBoundMasking(sys.MinQuorumSize(), sys.MaskingBound(), p)-1e-12 {
			t.Errorf("Prop 4.4 violated at p=%g", p)
		}
		if Prop45Applies(sys) {
			if fp < CrashLowerBoundB(sys.MaskingBound(), p)-1e-12 {
				t.Errorf("Prop 4.5 violated at p=%g", p)
			}
		}
	}
}

func TestProp45Precondition(t *testing.T) {
	// Majority-3: MT=2, IS=1 → 4 ≤ 2 false.
	if Prop45Applies(majority3(t)) {
		t.Error("Prop 4.5 should not apply to majority-3")
	}
}

func TestCondorcetBehaviorOfMajority(t *testing.T) {
	// The Condorcet Jury Theorem shape (Section 3.2.2): majority systems
	// have F_p → 0 for p < 1/2 and → 1 for p > 1/2 as n grows.
	build := func(n int) *core.ExplicitSystem {
		k := n/2 + 1
		var quorums []bitset.Set
		// Enumerate all k-subsets via recursion over bitmasks (n small).
		for mask := 0; mask < 1<<uint(n); mask++ {
			if popcount(uint64(mask)) == k {
				q := bitset.New(n)
				for i := 0; i < n; i++ {
					if mask&(1<<uint(i)) != 0 {
						q.Add(i)
					}
				}
				quorums = append(quorums, q)
			}
		}
		s, err := core.NewExplicit("maj", n, quorums)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	pLow, pHigh := 0.3, 0.7
	var prevLow, prevHigh float64
	for i, n := range []int{3, 7, 11} {
		low, _ := CrashProbabilityExact(build(n), pLow)
		high, _ := CrashProbabilityExact(build(n), pHigh)
		if i > 0 {
			if low >= prevLow {
				t.Errorf("F_%g not decreasing in n: %g → %g", pLow, prevLow, low)
			}
			if high <= prevHigh {
				t.Errorf("F_%g not increasing in n: %g → %g", pHigh, prevHigh, high)
			}
		}
		prevLow, prevHigh = low, high
	}
}

func TestCrashPolynomialLocal(t *testing.T) {
	sys := majority3(t)
	counts, err := CrashPolynomial(sys)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 3, 1}
	for k, c := range counts {
		if c != want[k] {
			t.Errorf("N_%d = %g, want %g", k, c, want[k])
		}
	}
	for _, p := range []float64{0.15, 0.5, 0.85} {
		direct, err := CrashProbabilityExact(sys, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := EvalCrashPolynomial(counts, p); math.Abs(got-direct) > 1e-12 {
			t.Errorf("poly(%g) = %g, direct %g", p, got, direct)
		}
	}
	big := explicit(t, "big", 30, []int{0, 29})
	if _, err := CrashPolynomial(big); !errors.Is(err, ErrUniverseTooLarge) {
		t.Errorf("err = %v, want ErrUniverseTooLarge", err)
	}
}

func TestCrashPolynomialSingleQuorum(t *testing.T) {
	// A single quorum of size k dies iff any of its k members dies:
	// N_j counts subsets hitting the quorum.
	sys := explicit(t, "solo", 4, []int{0, 1})
	counts, err := CrashPolynomial(sys)
	if err != nil {
		t.Fatal(err)
	}
	// Killing sets = subsets of {0..3} that intersect {0,1}:
	// size1: 2, size2: 5 (all C(4,2)=6 minus {2,3}), size3: 4, size4: 1.
	want := []float64{0, 2, 5, 4, 1}
	for k, c := range counts {
		if c != want[k] {
			t.Errorf("N_%d = %g, want %g", k, c, want[k])
		}
	}
}
