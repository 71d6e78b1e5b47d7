// Package core defines the quorum-system model of the paper: quorum
// systems over a universe of servers (Definition 3.1), access strategies
// (Definition 3.8), transversals and resilience (Definitions 3.3–3.4), and
// b-masking quorum systems (Definition 3.5, via the sufficient conditions
// of Lemma 3.6 and Corollary 3.7).
//
// Two kinds of systems coexist. Explicit systems materialize their quorum
// list and support exact analysis (IS, MT, LP-optimal load, exact crash
// probability). Implicit systems — M-Grid, M-Path, large compositions —
// have combinatorially many quorums and instead implement quorum selection
// under a failure pattern plus closed-form parameters, exactly the way the
// paper analyzes them.
package core

import (
	"errors"
	"fmt"
	"math/rand"

	"bqs/internal/bitset"
)

// ErrNoLiveQuorum is returned by SelectQuorum when every quorum intersects
// the dead set — the crash(Q) event of Definition 3.10.
var ErrNoLiveQuorum = errors.New("core: no quorum survives the failure pattern")

// System is the minimal behavior every quorum system implements.
type System interface {
	// Name identifies the construction (for tables and error messages).
	Name() string
	// UniverseSize returns n = |U|.
	UniverseSize() int
	// SelectQuorum returns a quorum disjoint from dead, or ErrNoLiveQuorum.
	// Randomization (when the system has a choice) is driven by rng.
	SelectQuorum(rng *rand.Rand, dead bitset.Set) (bitset.Set, error)
}

// Enumerable is implemented by systems whose quorum set is materialized.
type Enumerable interface {
	System
	// Quorums returns the quorum list. Callers must not mutate the sets.
	Quorums() []bitset.Set
}

// Enumerator is implemented by implicit systems that can materialize their
// quorum list on demand for exact analysis (Threshold, Grid, M-Grid, RT).
type Enumerator interface {
	System
	// Enumerate returns the explicit view, failing when the quorum count
	// exceeds limit (each implementation applies a default cap when
	// limit ≤ 0).
	Enumerate(limit int) (*ExplicitSystem, error)
}

// ErrNotEnumerable is returned by AsEnumerable for systems that can
// neither list their quorums nor materialize them.
var ErrNotEnumerable = errors.New("core: system cannot materialize its quorum list")

// AsEnumerable returns a materialized view of sys: the system itself when
// it already lists its quorums, its Enumerate(limit) when it implements
// Enumerator, and ErrNotEnumerable otherwise.
func AsEnumerable(sys System, limit int) (Enumerable, error) {
	switch s := sys.(type) {
	case Enumerable:
		return s, nil
	case Enumerator:
		return s.Enumerate(limit)
	}
	return nil, fmt.Errorf("core: %s: %w", sys.Name(), ErrNotEnumerable)
}

// Parameterized exposes the combinatorial parameters the paper tabulates.
// Implicit systems return closed-form values; ExplicitSystem computes them.
type Parameterized interface {
	// MinQuorumSize returns c(Q), the size of the smallest quorum.
	MinQuorumSize() int
	// MinIntersection returns IS(Q), the smallest |Q1 ∩ Q2|.
	MinIntersection() int
	// MinTransversal returns MT(Q); resilience is f = MT(Q) − 1.
	MinTransversal() int
}

// Masking is implemented by b-masking quorum systems.
type Masking interface {
	System
	// MaskingBound returns the largest b for which the system is b-masking.
	MaskingBound() int
}

// Construction is what every consumer of a built quorum system needs:
// quorum selection plus the parameters the masking and load bounds are
// computed from. With nothing dead, SelectQuorum draws the construction's
// access strategy (Definition 3.8).
type Construction interface {
	System
	Parameterized
}

// AdvertisedLoad is implemented by constructions that know the load that
// strategy induces, which measured loads are held against.
type AdvertisedLoad interface {
	Load() float64
}

// AnalyticCrash is implemented by constructions with a closed form for
// their crash probability F_p (Definition 3.10). An error means the form
// does not reach this instance.
type AnalyticCrash interface {
	CrashProbability(p float64) (float64, error)
}

// Resilience returns f = MT(Q) − 1 (remark after Definition 3.4).
func Resilience(p Parameterized) int { return p.MinTransversal() - 1 }

// MaskingBoundFromParams applies Corollary 3.7:
// b = min{MT(Q) − 1, (IS(Q) − 1)/2}.
func MaskingBoundFromParams(p Parameterized) int {
	byTransversal := p.MinTransversal() - 1
	byIntersection := (p.MinIntersection() - 1) / 2
	if byTransversal < byIntersection {
		return byTransversal
	}
	return byIntersection
}

// IsBMasking checks Lemma 3.6's sufficient conditions for the given b:
// MT(Q) ≥ b+1 and IS(Q) ≥ 2b+1.
func IsBMasking(p Parameterized, b int) bool {
	return p.MinTransversal() >= b+1 && p.MinIntersection() >= 2*b+1
}
