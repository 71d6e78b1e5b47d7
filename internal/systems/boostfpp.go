package systems

import (
	"fmt"
	"math/rand"

	"bqs/internal/bitset"
	"bqs/internal/combin"
	"bqs/internal/compose"
	"bqs/internal/core"
	"bqs/internal/measures"
	"bqs/internal/projective"
)

// BoostFPP is the boosted finite projective plane of Section 6:
// FPP(q) ∘ Thresh(3b+1 of 4b+1). Parameters (Proposition 6.1):
// n = (4b+1)(q²+q+1), c = (3b+1)(q+1), IS = 2b+1, MT = (b+1)(q+1); the
// system is b-masking with load ≈ 3/(4q), optimal for its size
// (Proposition 6.2). Availability is good for p < 1/4
// (Proposition 6.3) and degrades to 1 for p > 1/4.
type BoostFPP struct {
	name   string
	q, b   int
	plane  *projective.Plane
	fppSys *core.ExplicitSystem
	comp   *compose.Composite
}

var (
	_ core.System        = (*BoostFPP)(nil)
	_ core.Parameterized = (*BoostFPP)(nil)
	_ core.Masking       = (*BoostFPP)(nil)
	_ core.AnalyticCrash = (*BoostFPP)(nil)
)

// NewBoostFPP builds boostFPP(q, b) for a prime-power q and b ≥ 0.
func NewBoostFPP(q, b int) (*BoostFPP, error) {
	if b < 0 {
		return nil, fmt.Errorf("systems: boostFPP: b=%d must be non-negative", b)
	}
	plane, err := projective.New(q)
	if err != nil {
		return nil, fmt.Errorf("systems: boostFPP: %w", err)
	}
	fppSys, err := NewFPP(plane)
	if err != nil {
		return nil, err
	}
	thresh, err := NewThreshold(4*b+1, 3*b+1)
	if err != nil {
		return nil, fmt.Errorf("systems: boostFPP: inner threshold: %w", err)
	}
	return &BoostFPP{
		name:   fmt.Sprintf("boostFPP(q=%d,b=%d)", q, b),
		q:      q,
		b:      b,
		plane:  plane,
		fppSys: fppSys,
		comp:   compose.New(fppSys, thresh),
	}, nil
}

// Name returns the system's label.
func (s *BoostFPP) Name() string { return s.name }

// UniverseSize returns n = (4b+1)(q²+q+1).
func (s *BoostFPP) UniverseSize() int { return s.comp.UniverseSize() }

// SelectQuorum delegates to the composition: a surviving line of the plane
// whose every point's threshold copy still musters 3b+1 live servers. With
// nothing dead that is the product strategy of Theorem 4.7 (uniform line ×
// uniform 3b+1-subsets), achieving the optimal load of Proposition 6.2.
func (s *BoostFPP) SelectQuorum(rng *rand.Rand, dead bitset.Set) (bitset.Set, error) {
	return s.comp.SelectQuorum(rng, dead)
}

// MinQuorumSize returns c = (3b+1)(q+1) (Proposition 6.1).
func (s *BoostFPP) MinQuorumSize() int { return (3*s.b + 1) * (s.q + 1) }

// MinIntersection returns IS = 2b+1 (Proposition 6.1).
func (s *BoostFPP) MinIntersection() int { return 2*s.b + 1 }

// MinTransversal returns MT = (b+1)(q+1) (Proposition 6.1).
func (s *BoostFPP) MinTransversal() int { return (s.b + 1) * (s.q + 1) }

// MaskingBound applies Corollary 3.7, giving exactly b.
func (s *BoostFPP) MaskingBound() int { return core.MaskingBoundFromParams(s) }

// Load returns the exact load c/n = (3b+1)(q+1) / ((4b+1)(q²+q+1)) ≈ 3/4q
// (fair system; Proposition 6.2).
func (s *BoostFPP) Load() float64 {
	return float64(s.MinQuorumSize()) / float64(s.UniverseSize())
}

// InnerCrash is the exact crash probability of one threshold module:
// P(≥ b+1 of 4b+1 crash).
func (s *BoostFPP) InnerCrash(p float64) float64 {
	return combin.BinomialTail(4*s.b+1, s.b+1, p)
}

// CrashProbability returns the exact F_p = F_FPP(F_Thresh(p)) by
// Theorem 4.7, with the plane's crash probability computed by exact
// enumeration. It errors when q²+q+1 exceeds the exact-enumeration cap
// (q ≥ 5); use CrashUpperBound or Monte Carlo then.
func (s *BoostFPP) CrashProbability(p float64) (float64, error) {
	inner := s.InnerCrash(p)
	return measures.CrashProbabilityExact(s.fppSys, inner)
}

// CrashUpperBound is inequality (6) in Proposition 6.3:
// F_p ≤ (q+1)·F_Thresh(p), valid for any p.
func (s *BoostFPP) CrashUpperBound(p float64) float64 {
	v := float64(s.q+1) * s.InnerCrash(p)
	if v > 1 {
		return 1
	}
	return v
}

// ChernoffUpperBound is the closed form of Proposition 6.3:
// F_p ≤ (q+1)·e^{−2(4b+1)γ²} with γ = (b+1)/(4b+1) − p, for p < 1/4.
func (s *BoostFPP) ChernoffUpperBound(p float64) float64 {
	gamma := float64(s.b+1)/float64(4*s.b+1) - p
	v := float64(s.q+1) * combin.ChernoffUpper(4*s.b+1, gamma)
	if v > 1 {
		return 1
	}
	return v
}
