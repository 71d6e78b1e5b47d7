package core

import (
	"errors"
	"fmt"
	"math/rand"

	"bqs/internal/bitset"
)

// ErrNotIntersecting is returned by NewExplicit when two quorums are
// disjoint, violating Definition 3.1.
var ErrNotIntersecting = errors.New("core: quorums do not pairwise intersect")

// ExplicitSystem is a quorum system given by its full quorum list. All
// combinatorial parameters are computed exactly (the minimal transversal by
// branch and bound, since minimum hitting set is NP-hard in general but
// tiny at the sizes explicit systems are used for).
type ExplicitSystem struct {
	name    string
	n       int
	quorums []bitset.Set

	// Lazily computed caches (idempotent; no locking — compute before
	// sharing across goroutines, as the measure functions do).
	cMin  int // 0 = unset
	isMin int // 0 = unset
	mtMin int // 0 = unset
}

var (
	_ System        = (*ExplicitSystem)(nil)
	_ Enumerable    = (*ExplicitSystem)(nil)
	_ Parameterized = (*ExplicitSystem)(nil)
	_ Masking       = (*ExplicitSystem)(nil)
)

// NewExplicit builds an explicit quorum system over the universe
// {0,…,n−1}, verifying Definition 3.1: a non-empty collection of quorums
// within the universe, every pair of which intersects.
func NewExplicit(name string, n int, quorums []bitset.Set) (*ExplicitSystem, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: universe size %d must be positive", n)
	}
	if len(quorums) == 0 {
		return nil, errors.New("core: quorum system must contain at least one quorum")
	}
	universe := bitset.FromRange(0, n)
	own := make([]bitset.Set, len(quorums))
	for i, q := range quorums {
		if q.Empty() {
			return nil, fmt.Errorf("core: quorum %d is empty", i)
		}
		if !q.SubsetOf(universe) {
			return nil, fmt.Errorf("core: quorum %d = %v exceeds universe of size %d", i, q, n)
		}
		own[i] = q.Clone()
	}
	for i := range own {
		for j := i + 1; j < len(own); j++ {
			if !own[i].Intersects(own[j]) {
				return nil, fmt.Errorf("core: quorums %d and %d are disjoint: %w", i, j, ErrNotIntersecting)
			}
		}
	}
	return &ExplicitSystem{name: name, n: n, quorums: own}, nil
}

// Name returns the system's label.
func (s *ExplicitSystem) Name() string { return s.name }

// UniverseSize returns n.
func (s *ExplicitSystem) UniverseSize() int { return s.n }

// NumQuorums returns |𝒬|.
func (s *ExplicitSystem) NumQuorums() int { return len(s.quorums) }

// Quorums returns the quorum list. Callers must not mutate the sets.
func (s *ExplicitSystem) Quorums() []bitset.Set { return s.quorums }

// SelectQuorum returns a uniformly random quorum disjoint from dead, or
// ErrNoLiveQuorum.
func (s *ExplicitSystem) SelectQuorum(rng *rand.Rand, dead bitset.Set) (bitset.Set, error) {
	// Reservoir-sample among survivors for unbiased selection.
	var chosen bitset.Set
	found := 0
	for _, q := range s.quorums {
		if q.Intersects(dead) {
			continue
		}
		found++
		if rng.Intn(found) == 0 {
			chosen = q
		}
	}
	if found == 0 {
		return bitset.Set{}, ErrNoLiveQuorum
	}
	return chosen.Clone(), nil
}

// MinQuorumSize returns c(Q).
func (s *ExplicitSystem) MinQuorumSize() int {
	if s.cMin == 0 {
		best := s.quorums[0].Count()
		for _, q := range s.quorums[1:] {
			if c := q.Count(); c < best {
				best = c
			}
		}
		s.cMin = best
	}
	return s.cMin
}

// MinIntersection returns IS(Q) = min over pairs (including a quorum with
// itself only when |𝒬| = 1, where IS degenerates to c(Q)).
func (s *ExplicitSystem) MinIntersection() int {
	if s.isMin == 0 {
		if len(s.quorums) == 1 {
			s.isMin = s.quorums[0].Count()
			return s.isMin
		}
		best := -1
		for i := range s.quorums {
			for j := i + 1; j < len(s.quorums); j++ {
				c := s.quorums[i].IntersectionCount(s.quorums[j])
				if best < 0 || c < best {
					best = c
				}
			}
		}
		s.isMin = best
	}
	return s.isMin
}

// MinTransversal returns MT(Q), computed exactly by branch and bound.
func (s *ExplicitSystem) MinTransversal() int {
	if s.mtMin == 0 {
		s.mtMin = minTransversal(s.quorums, s.n)
	}
	return s.mtMin
}

// MaskingBound returns the largest b for which the system is b-masking
// (Corollary 3.7); negative when the system is not even 0-masking.
func (s *ExplicitSystem) MaskingBound() int { return MaskingBoundFromParams(s) }

// Degree returns deg(i), the number of quorums containing element i
// (Definition 3.2).
func (s *ExplicitSystem) Degree(i int) int {
	d := 0
	for _, q := range s.quorums {
		if q.Contains(i) {
			d++
		}
	}
	return d
}

// IsFair reports whether the system is (s,d)-fair (Definition 3.2): all
// quorums share one cardinality and all elements one degree. It returns
// the witness pair when fair.
func (s *ExplicitSystem) IsFair() (size, degree int, fair bool) {
	size = s.quorums[0].Count()
	for _, q := range s.quorums[1:] {
		if q.Count() != size {
			return 0, 0, false
		}
	}
	degree = s.Degree(0)
	for i := 1; i < s.n; i++ {
		if s.Degree(i) != degree {
			return 0, 0, false
		}
	}
	return size, degree, true
}

// IsTransversal reports whether T hits every quorum (Definition 3.3).
func (s *ExplicitSystem) IsTransversal(t bitset.Set) bool {
	for _, q := range s.quorums {
		if !q.Intersects(t) {
			return false
		}
	}
	return true
}
