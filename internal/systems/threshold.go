// Package systems implements every quorum construction the paper studies:
// the two [MR98a] baselines it compares against (Threshold, Grid) and the
// four new constructions (M-Grid §5.1, RT §5.2, boostFPP §6, M-Path §7),
// plus the regular (benign-fault) systems used as composition inputs. Each
// construction implements core.System with a load-optimal (or
// paper-specified) access strategy, closed-form combinatorial parameters,
// and an analytic crash-probability function where the paper derives one.
package systems

import (
	"fmt"
	"math/rand"

	"bqs/internal/bitset"
	"bqs/internal/combin"
	"bqs/internal/core"
)

// Threshold is the ℓ-of-n threshold quorum system: quorums are all subsets
// of size ℓ. With ℓ = ⌈(n+2b+1)/2⌉ it is the b-masking Threshold system of
// [MR98a] (Table 2, first row); with n = 4b+1, ℓ = 3b+1 it is the inner
// component of boostFPP (§6); with k > ℓ > k/2 it is the RT building block
// (§5.2).
type Threshold struct {
	name string
	n, l int
}

var (
	_ core.System        = (*Threshold)(nil)
	_ core.Parameterized = (*Threshold)(nil)
	_ core.Enumerator    = (*Threshold)(nil)
	_ core.AnalyticCrash = (*Threshold)(nil)
)

// NewThreshold builds the ℓ-of-n system. It requires 0 < ℓ ≤ n and
// 2ℓ > n (so that quorums pairwise intersect, Definition 3.1).
func NewThreshold(n, l int) (*Threshold, error) {
	if l <= 0 || l > n {
		return nil, fmt.Errorf("systems: threshold %d-of-%d: quorum size out of range", l, n)
	}
	if 2*l <= n {
		return nil, fmt.Errorf("systems: threshold %d-of-%d: quorums would not intersect (need 2ℓ > n)", l, n)
	}
	return &Threshold{name: fmt.Sprintf("Thresh(%d-of-%d)", l, n), n: n, l: l}, nil
}

// NewMaskingThreshold builds the b-masking Threshold system of [MR98a]:
// quorums of size ⌈(n+2b+1)/2⌉, which intersect in ≥ 2b+1 elements, the
// intersection sim's masking rule needs to outvote b liars. It requires
// n ≥ 4b+1 (necessary for any b-masking system).
func NewMaskingThreshold(n, b int) (*Threshold, error) {
	if b < 0 {
		return nil, fmt.Errorf("systems: masking threshold: b=%d must be non-negative", b)
	}
	if n < 4*b+1 {
		return nil, fmt.Errorf("systems: masking threshold: n=%d < 4b+1=%d", n, 4*b+1)
	}
	l := (n + 2*b + 1 + 1) / 2 // ⌈(n+2b+1)/2⌉
	t, err := NewThreshold(n, l)
	if err != nil {
		return nil, err
	}
	t.name = fmt.Sprintf("Threshold(n=%d,b=%d)", n, b)
	return t, nil
}

// Name returns the system's label.
func (t *Threshold) Name() string { return t.name }

// UniverseSize returns n.
func (t *Threshold) UniverseSize() int { return t.n }

// SelectQuorum picks ℓ live elements uniformly at random — ℓ lines of
// length one — or fails when fewer than ℓ survive. With nothing dead that
// is the optimal strategy of this fair system (Proposition 3.9), with load
// ℓ/n.
func (t *Threshold) SelectQuorum(rng *rand.Rand, dead bitset.Set) (bitset.Set, error) {
	q := bitset.New(t.n)
	if !(lineFamily{lines: t.n, length: 1, step: 1}).addFree(&q, dead, t.l, rng) {
		return bitset.Set{}, core.ErrNoLiveQuorum
	}
	return q, nil
}

// MinQuorumSize returns c = ℓ.
func (t *Threshold) MinQuorumSize() int { return t.l }

// MinIntersection returns IS = 2ℓ − n.
func (t *Threshold) MinIntersection() int { return 2*t.l - t.n }

// MinTransversal returns MT = n − ℓ + 1.
func (t *Threshold) MinTransversal() int { return t.n - t.l + 1 }

// MaskingBound applies Corollary 3.7.
func (t *Threshold) MaskingBound() int { return core.MaskingBoundFromParams(t) }

// Load returns the exact load ℓ/n (fair system, Proposition 3.9).
func (t *Threshold) Load() float64 { return float64(t.l) / float64(t.n) }

// CrashProbability returns the exact F_p: the system fails iff at least
// MT = n−ℓ+1 servers crash, a binomial tail. It never fails.
func (t *Threshold) CrashProbability(p float64) (float64, error) {
	return combin.BinomialTail(t.n, t.MinTransversal(), p), nil
}

// Enumerate materializes the system for exact cross-checks. The quorum
// count C(n, ℓ) must stay at or below limit (default 100000 when ≤ 0).
func (t *Threshold) Enumerate(limit int) (*core.ExplicitSystem, error) {
	if limit <= 0 {
		limit = 100000
	}
	count, err := combin.Binomial(t.n, t.l)
	if err != nil || count > int64(limit) {
		return nil, fmt.Errorf("systems: %s: C(%d,%d) quorums exceed limit %d", t.name, t.n, t.l, limit)
	}
	quorums := make([]bitset.Set, 0, count)
	combin.Combinations(t.n, t.l, func(comb []int) bool {
		quorums = append(quorums, bitset.FromSlice(comb))
		return true
	})
	return core.NewExplicit(t.name, t.n, quorums)
}
