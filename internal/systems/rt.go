package systems

import (
	"fmt"
	"math"
	"math/rand"

	"bqs/internal/bitset"
	"bqs/internal/combin"
	"bqs/internal/core"
)

// RT is the recursive threshold system RT(k, ℓ) of depth h (Section 5.2,
// Figure 2): an ℓ-of-k threshold composed over itself h times. It
// generalizes the recursive majorities of [MP92] and the HQS system of
// [Kum91] (= RT(3,2)); the [MR98a] Threshold is the trivial depth-1
// RT(4b+1, 3b+1). Parameters (Proposition 5.3): n = k^h, c = ℓ^h,
// IS = (2ℓ−k)^h, MT = (k−ℓ+1)^h; the system is fair, so L = (ℓ/k)^h
// = n^−(1−log_k ℓ) (Proposition 5.5).
type RT struct {
	name    string
	k, l, h int
	n       int
}

var (
	_ core.System        = (*RT)(nil)
	_ core.Parameterized = (*RT)(nil)
	_ core.Masking       = (*RT)(nil)
	_ core.Enumerator    = (*RT)(nil)
	_ core.AnalyticCrash = (*RT)(nil)
)

// NewRT builds RT(k, ℓ) of depth h. Requires k > ℓ > k/2 (the paper's
// building-block condition) and h ≥ 1, with k^h fitting in an int.
func NewRT(k, l, h int) (*RT, error) {
	if h < 1 {
		return nil, fmt.Errorf("systems: rt: depth %d must be ≥ 1", h)
	}
	if !(k > l && 2*l > k) {
		return nil, fmt.Errorf("systems: rt: need k > ℓ > k/2, got k=%d ℓ=%d", k, l)
	}
	n64, err := combin.IPow(k, h)
	if err != nil || n64 > 1<<30 {
		return nil, fmt.Errorf("systems: rt: k^h = %d^%d too large", k, h)
	}
	return &RT{
		name: fmt.Sprintf("RT(%d,%d,h=%d)", k, l, h),
		k:    k, l: l, h: h,
		n: int(n64),
	}, nil
}

// Name returns the system's label.
func (r *RT) Name() string { return r.name }

// UniverseSize returns n = k^h.
func (r *RT) UniverseSize() int { return r.n }

// SelectQuorum recursively assembles a live quorum: at each internal node,
// ℓ of the k child subtrees must themselves produce live quorums. Children
// are tried in random order, so with nothing dead each node takes a
// uniformly random ℓ-subset of its children — the symmetric strategy, load
// optimal because the system is fair.
func (r *RT) SelectQuorum(rng *rand.Rand, dead bitset.Set) (bitset.Set, error) {
	q := bitset.New(r.n)
	if !r.selectRec(rng, dead, 0, r.h, &q) {
		return bitset.Set{}, core.ErrNoLiveQuorum
	}
	return q, nil
}

// selectRec tries to place a quorum of the subtree rooted at the block
// [offset, offset+k^depth) into out, returning false if impossible.
func (r *RT) selectRec(rng *rand.Rand, dead bitset.Set, offset, depth int, out *bitset.Set) bool {
	if depth == 0 {
		if dead.Contains(offset) {
			return false
		}
		out.Add(offset)
		return true
	}
	block := intPow(r.k, depth-1)
	order := rng.Perm(r.k)
	got := 0
	// Tentatively collect into a scratch set per child so failed children
	// leave no residue.
	for _, child := range order {
		scratch := bitset.New(r.n)
		if r.selectRec(rng, dead, offset+child*block, depth-1, &scratch) {
			out.UnionWith(scratch)
			got++
			if got == r.l {
				return true
			}
		}
	}
	return false
}

// MinQuorumSize returns c = ℓ^h.
func (r *RT) MinQuorumSize() int { return intPow(r.l, r.h) }

// MinIntersection returns IS = (2ℓ−k)^h.
func (r *RT) MinIntersection() int { return intPow(2*r.l-r.k, r.h) }

// MinTransversal returns MT = (k−ℓ+1)^h.
func (r *RT) MinTransversal() int { return intPow(r.k-r.l+1, r.h) }

// MaskingBound applies Corollaries 3.7/5.4:
// b = min{((2ℓ−k)^h − 1)/2, (k−ℓ+1)^h − 1}.
func (r *RT) MaskingBound() int { return core.MaskingBoundFromParams(r) }

// Load returns the exact load (ℓ/k)^h = n^−(1−log_k ℓ) (Proposition 5.5).
func (r *RT) Load() float64 {
	return math.Pow(float64(r.l)/float64(r.k), float64(r.h))
}

// BlockCrash is g(p): the crash probability of the ℓ-of-k building block,
// i.e. the probability that ≥ k−ℓ+1 of k components fail.
func (r *RT) BlockCrash(p float64) float64 {
	return combin.BinomialTail(r.k, r.k-r.l+1, p)
}

// CrashProbability iterates the Proposition 5.6 recurrence
// F(h) = g(F(h−1)), F(0) = p — exact by Theorem 4.7's composition rule.
// It never fails.
func (r *RT) CrashProbability(p float64) (float64, error) {
	f := p
	for i := 0; i < r.h; i++ {
		f = r.BlockCrash(f)
	}
	return f, nil
}

// CriticalProbability returns p_c, the unique fixed point of g in (0,1)
// (Proposition 5.6): F_p → 0 for p < p_c and → 1 for p > p_c as h → ∞.
// Found by bisection on g(p) − p.
func (r *RT) CriticalProbability() float64 {
	lo, hi := 1e-9, 1-1e-9
	// g(p) < p near 0 and g(p) > p near 1 for threshold reliability
	// functions; bisect the sign change of g(p) − p.
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if r.BlockCrash(mid) < mid {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// CrashUpperBound is Proposition 5.7: for p < 1/C(k,ℓ−1),
// F_p < (C(k,ℓ−1)·p)^((k−ℓ+1)^h), decaying as exp(−Ω(n^{log_k(k−ℓ+1)})).
func (r *RT) CrashUpperBound(p float64) float64 {
	c := combin.BinomialFloat(r.k, r.l-1)
	x := c * p
	if x >= 1 {
		return 1
	}
	return math.Pow(x, float64(r.MinTransversal()))
}

// Enumerate materializes the system for exact cross-checks on small
// instances. The quorum count is C(k,ℓ)·N(h−1)^ℓ, growing doubly
// exponentially; limit defaults to 100000 when ≤ 0.
func (r *RT) Enumerate(limit int) (*core.ExplicitSystem, error) {
	if limit <= 0 {
		limit = 100000
	}
	quorums, err := r.enumRec(0, r.h, limit)
	if err != nil {
		return nil, err
	}
	return core.NewExplicit(r.name, r.n, quorums)
}

func (r *RT) enumRec(offset, depth, limit int) ([]bitset.Set, error) {
	if depth == 0 {
		return []bitset.Set{bitset.FromSlice([]int{offset})}, nil
	}
	block := intPow(r.k, depth-1)
	childQs := make([][]bitset.Set, r.k)
	for c := 0; c < r.k; c++ {
		qs, err := r.enumRec(offset+c*block, depth-1, limit)
		if err != nil {
			return nil, err
		}
		childQs[c] = qs
	}
	var out []bitset.Set
	combin.Combinations(r.k, r.l, func(children []int) bool {
		// Cartesian product of the chosen children's quorum lists.
		idx := make([]int, len(children))
		for {
			q := bitset.New(r.n)
			for pos, c := range children {
				q.UnionWith(childQs[c][idx[pos]])
			}
			out = append(out, q)
			if len(out) > limit {
				return false
			}
			pos := len(idx) - 1
			for pos >= 0 {
				idx[pos]++
				if idx[pos] < len(childQs[children[pos]]) {
					break
				}
				idx[pos] = 0
				pos--
			}
			if pos < 0 {
				return true
			}
		}
	})
	if len(out) > limit {
		return nil, fmt.Errorf("systems: %s: quorum count exceeds limit %d", r.name, limit)
	}
	return out, nil
}

func intPow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}
