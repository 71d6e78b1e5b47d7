package bitset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var s Set
	if !s.Empty() || s.Count() != 0 {
		t.Fatalf("zero value should be empty, got count %d", s.Count())
	}
	s.Add(130)
	if !s.Contains(130) || s.Count() != 1 {
		t.Fatalf("after Add(130): contains=%v count=%d", s.Contains(130), s.Count())
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(200)
	elems := []int{0, 1, 63, 64, 65, 127, 128, 199}
	for _, e := range elems {
		s.Add(e)
	}
	for _, e := range elems {
		if !s.Contains(e) {
			t.Errorf("Contains(%d) = false, want true", e)
		}
	}
	if s.Count() != len(elems) {
		t.Fatalf("Count = %d, want %d", s.Count(), len(elems))
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Error("Contains(64) after Remove = true")
	}
	if s.Count() != len(elems)-1 {
		t.Fatalf("Count after remove = %d, want %d", s.Count(), len(elems)-1)
	}
}

func TestNegativeIgnored(t *testing.T) {
	var s Set
	s.Add(-1)
	s.Remove(-5)
	if !s.Empty() {
		t.Fatal("negative Add should be ignored")
	}
	if s.Contains(-1) {
		t.Fatal("Contains(-1) should be false")
	}
}

func TestElementsSorted(t *testing.T) {
	s := FromSlice([]int{5, 1, 200, 64, 63})
	got := s.Elements()
	want := []int{1, 5, 63, 64, 200}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Elements = %v, want %v", got, want)
	}
}

func TestFromRange(t *testing.T) {
	s := FromRange(3, 7)
	if got := s.Elements(); !reflect.DeepEqual(got, []int{3, 4, 5, 6}) {
		t.Fatalf("FromRange(3,7) = %v", got)
	}
	if !FromRange(5, 5).Empty() {
		t.Fatal("FromRange(5,5) should be empty")
	}
}

// union returns s ∪ t, leaving both operands untouched.
func union(s, t Set) Set {
	u := s.Clone()
	u.UnionWith(t)
	return u
}

func TestSetAlgebra(t *testing.T) {
	a := FromSlice([]int{1, 2, 3, 64, 100})
	b := FromSlice([]int{3, 4, 64, 200})

	if got := union(a, b).Elements(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 64, 100, 200}) {
		t.Errorf("UnionWith = %v", got)
	}
	if got := a.IntersectionCount(b); got != 2 {
		t.Errorf("IntersectionCount = %d, want 2", got)
	}
	if !a.Intersects(b) {
		t.Error("Intersects = false, want true")
	}
	if a.Intersects(FromSlice([]int{7, 8})) {
		t.Error("Intersects disjoint = true, want false")
	}
}

func TestSubsetEqualDifferentLengths(t *testing.T) {
	short := FromSlice([]int{1, 2})
	long := FromSlice([]int{1, 2, 300})
	long.Remove(300) // long still has more backing words than short

	if !short.Equal(long) || !long.Equal(short) {
		t.Error("Equal should ignore trailing zero words")
	}
	if !short.SubsetOf(long) || !long.SubsetOf(short) {
		t.Error("SubsetOf should ignore trailing zero words")
	}
	long.Add(300)
	if short.Equal(long) {
		t.Error("Equal after re-adding 300 should be false")
	}
	if !short.SubsetOf(long) {
		t.Error("short ⊆ long should hold")
	}
	if long.SubsetOf(short) {
		t.Error("long ⊆ short should not hold")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromSlice([]int{1, 2, 3})
	b := a.Clone()
	b.Add(99)
	if a.Contains(99) {
		t.Fatal("Clone is not independent")
	}
}

func TestString(t *testing.T) {
	if got := FromSlice([]int{2, 0}).String(); got != "{0, 2}" {
		t.Errorf("String = %q, want {0, 2}", got)
	}
	if got := (Set{}).String(); got != "{}" {
		t.Errorf("String empty = %q, want {}", got)
	}
}

func TestRangeEarlyStop(t *testing.T) {
	s := FromRange(0, 100)
	seen := 0
	s.Range(func(i int) bool {
		seen++
		return seen < 5
	})
	if seen != 5 {
		t.Fatalf("Range visited %d elements, want 5", seen)
	}
}

// randomSet draws a pseudo-random set over [0, 192) from raw generator state.
func randomSet(r *rand.Rand) Set {
	s := New(192)
	for i := 0; i < 192; i++ {
		if r.Intn(3) == 0 {
			s.Add(i)
		}
	}
	return s
}

func TestQuickSetLaws(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}

	// |A ∩ B| + |A ∪ B| = |A| + |B| (inclusion–exclusion).
	inclExcl := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r), randomSet(r)
		return a.IntersectionCount(b)+union(a, b).Count() == a.Count()+b.Count()
	}
	if err := quick.Check(inclExcl, cfg); err != nil {
		t.Errorf("inclusion–exclusion: %v", err)
	}

	// A's elements split into those in B and those not: the first part
	// is A ∩ B, whose size IntersectionCount reports and whose emptiness
	// Intersects reports, and the two parts rebuild A.
	partition := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r), randomSet(r)
		var in, out []int
		for _, e := range a.Elements() {
			if b.Contains(e) {
				in = append(in, e)
			} else {
				out = append(out, e)
			}
		}
		inter, diff := FromSlice(in), FromSlice(out)
		return a.IntersectionCount(b) == len(in) &&
			a.Intersects(b) == (len(in) > 0) &&
			inter.SubsetOf(b) && !diff.Intersects(b) &&
			union(diff, inter).Equal(a) &&
			(len(out) == 0) == a.SubsetOf(b)
	}
	if err := quick.Check(partition, cfg); err != nil {
		t.Errorf("partition law: %v", err)
	}

	// Elements round-trips through FromSlice and stays sorted.
	roundTrip := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomSet(r)
		elems := a.Elements()
		if !sort.IntsAreSorted(elems) {
			return false
		}
		return FromSlice(elems).Equal(a)
	}
	if err := quick.Check(roundTrip, cfg); err != nil {
		t.Errorf("round trip: %v", err)
	}
}
