// Package compose implements quorum-system composition S ∘ R
// (Definition 4.6): each element of the outer system S is replaced by a
// distinct copy of the inner system R, and a composed quorum is a quorum of
// S with each of its elements expanded to a quorum of the corresponding
// copy of R. Theorem 4.7 gives the composed parameters:
//
//	n = nS·nR   c = cS·cR   IS = IS_S·IS_R   MT = MT_S·MT_R
//	L = L_S·L_R and F_p(S∘R) = s(r(p)).
//
// The package offers an explicit composition (materializing all quorums,
// for exact analysis of small systems) and a lazy Composite that scales to
// the paper's boostFPP sizes. Element (i, j) — copy i of R, element j —
// maps to global index i·nR + j.
package compose

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"bqs/internal/bitset"
	"bqs/internal/core"
)

// ErrTooManyQuorums is returned by Explicit when materialization would
// exceed the given limit.
var ErrTooManyQuorums = errors.New("compose: explicit composition exceeds quorum limit")

// Explicit materializes S ∘ R as an ExplicitSystem. The number of composed
// quorums is Σ_{S∈𝒮} |𝓡|^|S|, which grows fast; limit guards against
// accidental blow-ups (≤ 0 means a default of 100000).
func Explicit(outer, inner core.Enumerable, limit int) (*core.ExplicitSystem, error) {
	if limit <= 0 {
		limit = 100000
	}
	nR := inner.UniverseSize()
	n := outer.UniverseSize() * nR
	innerQs := inner.Quorums()

	var composed []bitset.Set
	for _, oq := range outer.Quorums() {
		members := oq.Elements()
		// Enumerate the cartesian product of inner-quorum choices.
		idx := make([]int, len(members))
		for {
			q := bitset.New(n)
			for pos, module := range members {
				innerQs[idx[pos]].Range(func(e int) bool {
					q.Add(module*nR + e)
					return true
				})
			}
			composed = append(composed, q)
			if len(composed) > limit {
				return nil, fmt.Errorf("compose: %d quorums: %w", len(composed), ErrTooManyQuorums)
			}
			// Advance the odometer.
			pos := len(idx) - 1
			for pos >= 0 {
				idx[pos]++
				if idx[pos] < len(innerQs) {
					break
				}
				idx[pos] = 0
				pos--
			}
			if pos < 0 {
				break
			}
		}
	}
	name := fmt.Sprintf("%s∘%s", outer.Name(), inner.Name())
	return core.NewExplicit(name, n, composed)
}

// Composite is the lazy composition S ∘ R. Its parameters and its load are
// Theorem 4.7's products, defined when both components have them.
type Composite struct {
	outer core.System
	inner core.System
	nR    int
}

var _ core.System = (*Composite)(nil)
var _ core.Parameterized = (*Composite)(nil)
var _ core.Enumerator = (*Composite)(nil)

// New returns the lazy composition of outer over inner.
func New(outer, inner core.System) *Composite {
	return &Composite{outer: outer, inner: inner, nR: inner.UniverseSize()}
}

// Name returns "outer∘inner".
func (c *Composite) Name() string {
	return fmt.Sprintf("%s∘%s", c.outer.Name(), c.inner.Name())
}

// UniverseSize returns nS·nR.
func (c *Composite) UniverseSize() int {
	return c.outer.UniverseSize() * c.nR
}

// SelectQuorum implements the modular-decomposition semantics: copy i of R
// is failed exactly when no quorum of that copy survives, and a composed
// quorum survives iff a quorum of S survives over the live copies. With
// nothing dead this is the product strategy of Theorem 4.7's proof, which
// achieves L(S)·L(R).
func (c *Composite) SelectQuorum(rng *rand.Rand, dead bitset.Set) (bitset.Set, error) {
	nS := c.outer.UniverseSize()
	// Split the dead set by module.
	moduleDead := make([]bitset.Set, nS)
	for i := range moduleDead {
		moduleDead[i] = bitset.New(c.nR)
	}
	dead.Range(func(e int) bool {
		module := e / c.nR
		if module < nS {
			moduleDead[module].Add(e % c.nR)
		}
		return true
	})
	// A module is dead for the outer system when its copy has no live
	// quorum. Inner selections are memoized so each copy is queried once.
	deadModules := bitset.New(nS)
	innerChoice := make([]bitset.Set, nS)
	for i := 0; i < nS; i++ {
		q, err := c.inner.SelectQuorum(rng, moduleDead[i])
		if err != nil {
			if errors.Is(err, core.ErrNoLiveQuorum) {
				deadModules.Add(i)
				continue
			}
			return bitset.Set{}, fmt.Errorf("compose: inner copy %d: %w", i, err)
		}
		innerChoice[i] = q
	}
	outerQ, err := c.outer.SelectQuorum(rng, deadModules)
	if err != nil {
		return bitset.Set{}, err // preserves ErrNoLiveQuorum
	}
	result := bitset.New(c.UniverseSize())
	outerQ.Range(func(i int) bool {
		innerChoice[i].Range(func(e int) bool {
			result.Add(i*c.nR + e)
			return true
		})
		return true
	})
	return result, nil
}

// product is Theorem 4.7's rule for c, IS and MT: the component values
// multiply (0 when a component lacks parameters).
func (c *Composite) product(param func(core.Parameterized) int) int {
	o, ok := c.outer.(core.Parameterized)
	i, ok2 := c.inner.(core.Parameterized)
	if !ok || !ok2 {
		return 0
	}
	return param(o) * param(i)
}

// MinQuorumSize returns c(S)·c(R).
func (c *Composite) MinQuorumSize() int { return c.product(core.Parameterized.MinQuorumSize) }

// MinIntersection returns IS(S)·IS(R).
func (c *Composite) MinIntersection() int { return c.product(core.Parameterized.MinIntersection) }

// MinTransversal returns MT(S)·MT(R).
func (c *Composite) MinTransversal() int { return c.product(core.Parameterized.MinTransversal) }

// MaskingBound applies Corollary 3.7 to the composed parameters.
func (c *Composite) MaskingBound() int { return core.MaskingBoundFromParams(c) }

// Load returns L(S)·L(R) per Theorem 4.7 — the load of the product
// strategy SelectQuorum draws — or NaN when a component does not advertise
// its own, which no load check passes or flags.
func (c *Composite) Load() float64 {
	o, ok := c.outer.(core.AdvertisedLoad)
	i, ok2 := c.inner.(core.AdvertisedLoad)
	if !ok || !ok2 {
		return math.NaN()
	}
	return o.Load() * i.Load()
}

// Enumerate materializes the composed quorum list so the Definition 3.8
// load LP (and with it -strategy optimal and measures.Load) runs on a
// composition: both constituents are materialized via core.AsEnumerable
// — so compositions nest — and the product is expanded by Explicit
// under the same quorum-count limit. The count grows as |R|^|S-quorum|
// per outer quorum, so the limit is load-bearing: a composition past it
// reports ErrTooManyQuorums rather than materializing gigabytes.
func (c *Composite) Enumerate(limit int) (*core.ExplicitSystem, error) {
	outer, err := core.AsEnumerable(c.outer, limit)
	if err != nil {
		return nil, fmt.Errorf("compose: outer: %w", err)
	}
	inner, err := core.AsEnumerable(c.inner, limit)
	if err != nil {
		return nil, fmt.Errorf("compose: inner: %w", err)
	}
	return Explicit(outer, inner, limit)
}

// CrashFn maps an element crash probability to a system crash probability.
type CrashFn func(p float64) float64

// Crash composes crash-probability functions per Theorem 4.7:
// F_p(S∘R) = s(r(p)).
func Crash(outer, inner CrashFn) CrashFn {
	return func(p float64) float64 { return outer(inner(p)) }
}
