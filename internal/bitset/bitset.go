// Package bitset provides a compact set of small non-negative integers,
// used throughout the library to represent quorums (subsets of the server
// universe U = {0, …, n−1}). All quorum measures reduce to intersection,
// union and popcount over these sets, so the representation is packed
// 64-bit words with branch-free counting.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a set of non-negative integers backed by packed 64-bit words.
// The zero value is an empty set ready to use. Sets grow automatically on
// Add; all binary operations accept operands of different lengths.
type Set struct {
	words []uint64
}

// New returns an empty set with capacity for elements in [0, n).
func New(n int) Set {
	if n <= 0 {
		return Set{}
	}
	return Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromSlice returns a set containing exactly the given elements.
func FromSlice(elems []int) Set {
	s := Set{}
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// FromRange returns the set {lo, lo+1, …, hi−1}.
func FromRange(lo, hi int) Set {
	s := New(hi)
	for i := lo; i < hi; i++ {
		s.Add(i)
	}
	return s
}

func (s *Set) grow(word int) {
	for len(s.words) <= word {
		s.words = append(s.words, 0)
	}
}

// Add inserts i into the set. Negative values are ignored.
func (s *Set) Add(i int) {
	if i < 0 {
		return
	}
	w := i / wordBits
	s.grow(w)
	s.words[w] |= 1 << uint(i%wordBits)
}

// Remove deletes i from the set if present.
func (s *Set) Remove(i int) {
	if i < 0 {
		return
	}
	w := i / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << uint(i%wordBits)
	}
}

// Contains reports whether i is in the set.
func (s Set) Contains(i int) bool {
	if i < 0 {
		return false
	}
	w := i / wordBits
	return w < len(s.words) && s.words[w]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	if len(s.words) == 0 {
		return Set{}
	}
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w}
}

// Equal reports whether s and t contain the same elements.
func (s Set) Equal(t Set) bool {
	long, short := s.words, t.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// UnionWith adds every element of t to s.
func (s *Set) UnionWith(t Set) {
	s.grow(len(t.words) - 1)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// IntersectionCount returns |s ∩ t| without allocating.
func (s Set) IntersectionCount(t Set) int {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(s.words[i] & t.words[i])
	}
	return c
}

// Intersects reports whether s ∩ t is non-empty.
func (s Set) Intersects(t Set) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every element of s is in t.
func (s Set) SubsetOf(t Set) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// Elements returns the members of the set in increasing order.
func (s Set) Elements() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// Range calls fn for each element in increasing order until fn returns
// false or the elements are exhausted.
func (s Set) Range(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// String renders the set as "{a, b, c}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.Range(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(strconv.Itoa(i))
		return true
	})
	b.WriteByte('}')
	return b.String()
}
