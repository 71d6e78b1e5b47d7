package measures

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"bqs/internal/core"
)

// MaxExactUniverse caps the universe size for exact crash-probability
// computation (2^n failure configurations are enumerated).
const MaxExactUniverse = 24

// ErrUniverseTooLarge is returned by CrashProbabilityExact when
// n > MaxExactUniverse.
var ErrUniverseTooLarge = errors.New("measures: universe too large for exact crash probability")

// CrashProbabilityExact computes F_p(Q) (Definition 3.10) exactly by
// enumerating all 2^n crash configurations. Each server crashes
// independently with probability p; the system crashes when every quorum
// contains a crashed server. It is the uniform special case of
// CrashProbabilityExactVec, which it delegates to.
func CrashProbabilityExact(sys core.Enumerable, p float64) (float64, error) {
	n := sys.UniverseSize()
	if n > MaxExactUniverse {
		return 0, fmt.Errorf("measures: n=%d: %w", n, ErrUniverseTooLarge)
	}
	if !(p >= 0 && p <= 1) {
		return 0, fmt.Errorf("measures: crash probability p=%g outside [0,1]", p)
	}
	return CrashProbabilityExactVec(sys, UniformModel(n, p).P)
}

func popcount(x uint64) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

// CrashPolynomial computes the reliability structure of the system
// exactly: counts[k] is the number of k-element failure sets that kill
// every quorum, so that for any p,
//
//	F_p(Q) = Σ_k counts[k] · p^k (1−p)^{n−k}.
//
// This is the "reliability polynomial" view of Definition 3.10 [BP75] and
// gives F_p for ALL p from one enumeration. Same 2^n cost and universe
// cap as CrashProbabilityExact.
func CrashPolynomial(sys core.Enumerable) ([]float64, error) {
	n := sys.UniverseSize()
	if n > MaxExactUniverse {
		return nil, fmt.Errorf("measures: n=%d: %w", n, ErrUniverseTooLarge)
	}
	masks := quorumMasks(sys)
	counts := make([]float64, n+1)
	for dead := uint64(0); dead < 1<<uint(n); dead++ {
		if systemDead(masks, dead) {
			counts[popcount(dead)]++
		}
	}
	return counts, nil
}

// EvalCrashPolynomial evaluates Σ_k counts[k]·p^k(1−p)^{n−k}.
func EvalCrashPolynomial(counts []float64, p float64) float64 {
	n := len(counts) - 1
	total := 0.0
	for k, c := range counts {
		if c == 0 {
			continue
		}
		total += c * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
	}
	return total
}

// MCResult is a Monte Carlo estimate of the crash probability with its
// standard error.
type MCResult struct {
	Estimate float64
	StdErr   float64
	Failures int
	Trials   int
}

// CrashProbabilityMC estimates F_p(Q) by sampling crash configurations and
// asking the system for a surviving quorum. It works for implicit systems
// of any size. It is the uniform special case of CrashProbabilityMCModel,
// which it delegates to.
func CrashProbabilityMC(sys core.System, p float64, trials int, rng *rand.Rand) (MCResult, error) {
	if !(p >= 0 && p <= 1) {
		return MCResult{}, fmt.Errorf("measures: crash probability p=%g outside [0,1]", p)
	}
	return CrashProbabilityMCModel(sys, UniformModel(sys.UniverseSize(), p), trials, rng)
}

// CrashLowerBoundMT is Proposition 4.3: F_p(Q) ≥ p^MT(Q) = p^(f+1).
func CrashLowerBoundMT(mt int, p float64) float64 {
	return math.Pow(p, float64(mt))
}

// CrashLowerBoundMasking is Proposition 4.4: a b-masking system with
// smallest quorum c has F_p(Q) ≥ p^(c−2b).
func CrashLowerBoundMasking(c, b int, p float64) float64 {
	e := c - 2*b
	if e < 0 {
		e = 0
	}
	return math.Pow(p, float64(e))
}

// CrashLowerBoundB is Proposition 4.5: when MT(Q) ≤ (IS(Q)+1)/2,
// F_p(Q) ≥ p^(b+1). Of Table 2's six instances only Threshold and Grid
// meet the condition. It is the caller's to check via Prop45Applies.
func CrashLowerBoundB(b int, p float64) float64 {
	return math.Pow(p, float64(b+1))
}

// Prop45Applies reports whether Proposition 4.5's precondition
// MT(Q) ≤ (IS(Q)+1)/2 holds.
func Prop45Applies(params core.Parameterized) bool {
	return 2*params.MinTransversal() <= params.MinIntersection()+1
}
