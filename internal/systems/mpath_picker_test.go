package systems

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"bqs/internal/bitset"
	"bqs/internal/core"
	"bqs/internal/lattice"
	"bqs/internal/measures"
)

// TestPathPickerSafety draws quorums under independent random dead sets,
// light enough for straight lines, heavy enough for max-flow paths and
// in between for one axis of each, so all shapes meet: every quorum avoids
// its dead set and every pair intersects in ≥ 2b+1 (Definition 3.5).
func TestPathPickerSafety(t *testing.T) {
	mp94, _ := NewMPath(9, 4)
	mp103, _ := NewMPath(10, 3)
	edge94, _ := NewMPathEdge(9, 4)
	for _, c := range []struct {
		sys interface {
			core.System
			core.Parameterized
		}
		b int
	}{{mp94, 4}, {mp103, 3}, {edge94, 4}} {
		rng := rand.New(rand.NewSource(161))
		var quorums []bitset.Set
		straight := 0
		for i := 0; i < 400; i++ {
			n := c.sys.UniverseSize()
			dead := measures.UniformModel(n, []float64{0, 0.05, 0.12, 0.2}[i%4]).SampleDead(n, rng)
			q, err := c.sys.SelectQuorum(rng, dead)
			if err != nil {
				continue
			}
			if q.Intersects(dead) {
				t.Fatalf("%s: quorum %v uses a dead server of %v", c.sys.Name(), q, dead)
			}
			quorums = append(quorums, q)
			if q.Count() == c.sys.MinQuorumSize() {
				straight++
			}
		}
		// Anti-vacuity: both shapes must be in the mix (a quorum with any
		// max-flow path on a blocked axis is larger than the all-straight one).
		t.Logf("%s: %d quorums from 400 dead sets, %d of them all-straight", c.sys.Name(), len(quorums), straight)
		if straight < 50 || len(quorums)-straight < 50 {
			t.Fatalf("%s: want ≥ 50 quorums of each shape", c.sys.Name())
		}
		for i, qa := range quorums {
			for _, qb := range quorums[:i] {
				if got := qa.IntersectionCount(qb); got < 2*c.b+1 {
					t.Fatalf("%s: |Q1∩Q2| = %d < 2b+1 = %d\n%v\n%v", c.sys.Name(), got, 2*c.b+1, qa, qb)
				}
			}
		}
	}
}

// TestMPathNoLiveQuorumIsExact pins Definition 3.10: SelectQuorum fails
// exactly when some axis has fewer than √(2b+1) disjoint open crossings,
// whatever the straight-line short-cut saw.
func TestMPathNoLiveQuorumIsExact(t *testing.T) {
	m, _ := NewMPath(10, 3)
	rng := rand.New(rand.NewSource(162))
	for _, p := range []float64{0.1, 0.3, 0.5} {
		crashed := 0
		for trial := 0; trial < 2000; trial++ {
			dead := m.Grid().SampleDead(p, rng)
			want := m.Grid().CountDisjointPaths(lattice.LeftRight, dead) < m.r ||
				m.Grid().CountDisjointPaths(lattice.TopBottom, dead) < m.r
			_, err := m.SelectQuorum(rng, dead)
			if err != nil && !errors.Is(err, core.ErrNoLiveQuorum) {
				t.Fatal(err)
			}
			if (err != nil) != want {
				t.Fatalf("p=%g: SelectQuorum err=%v but crashed=%v for dead %v", p, err, want, dead)
			}
			if want {
				crashed++
			}
		}
		t.Logf("p=%g: %d/2000 dead sets crash M-Path(10,3)", p, crashed)
	}
}

// diagonalDead kills the main diagonal of M-Path(d,·): every row and column
// loses a vertex, so no straight line is free and every pick is max-flow.
func diagonalDead(m *MPath) bitset.Set {
	dead := bitset.New(m.UniverseSize())
	for i := 0; i < m.d; i++ {
		dead.Add(m.Grid().Index(i, i))
	}
	return dead
}

// TestMPathFallbackIsRandomized pins the degraded regime: with no free
// straight line the picker still spreads its quorums (at the parent commit
// this was one quorum, every time) and replays from the seed.
func TestMPathFallbackIsRandomized(t *testing.T) {
	m, _ := NewMPath(10, 3)
	dead := diagonalDead(m)
	const picks = 2000
	draw := func(seed int64) ([]string, []int) {
		rng := rand.New(rand.NewSource(seed))
		seq := make([]string, picks)
		hits := make([]int, m.UniverseSize())
		for i := range seq {
			q, err := m.SelectQuorum(rng, dead)
			if err != nil {
				t.Fatal(err)
			}
			if q.Intersects(dead) {
				t.Fatalf("pick %d uses the dead diagonal: %v", i, q)
			}
			seq[i] = q.String()
			q.Range(func(v int) bool { hits[v]++; return true })
		}
		return seq, hits
	}
	seq, hits := draw(163)
	distinct := map[string]bool{}
	for _, s := range seq {
		distinct[s] = true
	}
	peak := 0
	for _, h := range hits {
		if h > peak {
			peak = h
		}
	}
	t.Logf("diagonal dead: %d distinct quorums in %d picks, busiest live server in %.1f%%",
		len(distinct), picks, 100*float64(peak)/picks)
	if len(distinct) < 20 {
		t.Errorf("only %d distinct quorums in %d picks, want ≥ 20", len(distinct), picks)
	}
	if peak > picks*9/10 {
		t.Errorf("a live server is in %d of %d quorums, want ≤ 90%%", peak, picks)
	}
	again, _ := draw(163)
	for i := range seq {
		if seq[i] != again[i] {
			t.Fatalf("pick %d differs between two runs of seed 163", i)
		}
	}
}

// TestLineDrawUniformMargins checks the one line draw every line-picking
// construction shares: each free line lands in the quorum with probability
// r/free, a line with a dead element never does, and the quorum is exactly
// r whole lines. It runs on Threshold's family of lines of length one and
// on the rows of a grid.
func TestLineDrawUniformMargins(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const trials, r = 30000, 3
	for _, c := range []struct {
		name     string
		f        lineFamily
		deadLine int // a line with one dead element, or −1
	}{
		{"threshold, 10 lines of length one", lineFamily{lines: 10, length: 1, step: 1}, -1},
		{"rows of a 10×10 grid, one element of row 4 dead", squareLines(10)[0], 4},
	} {
		n := c.f.lines * c.f.length
		dead, free := bitset.New(n), c.f.lines
		if c.deadLine >= 0 {
			dead.Add(c.deadLine*c.f.step + (c.f.length-1)*c.f.stride)
			free--
		}
		counts := make([]int, c.f.lines)
		for i := 0; i < trials; i++ {
			q := bitset.New(n)
			if !c.f.addFree(&q, dead, r, rng) {
				t.Fatalf("%s: no draw", c.name)
			}
			if q.Count() != r*c.f.length {
				t.Fatalf("%s: quorum of %d elements, want %d whole lines", c.name, q.Count(), r)
			}
			for l := range counts {
				if q.Contains(l * c.f.step) {
					counts[l]++
				}
			}
		}
		p := float64(r) / float64(free)
		expect := trials * p
		sigma := math.Sqrt(trials * p * (1 - p))
		for l, got := range counts {
			switch {
			case l == c.deadLine:
				if got != 0 {
					t.Errorf("%s: dead line %d drawn %d times", c.name, l, got)
				}
			case math.Abs(float64(got)-expect) > 5*sigma:
				t.Errorf("%s: line %d drawn %d times, more than 5σ from %g", c.name, l, got, expect)
			}
		}
	}
}

var benchQuorum bitset.Set

func benchSelect(b *testing.B, sys core.System, dead bitset.Set) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for b.Loop() {
		q, err := sys.SelectQuorum(rng, dead)
		if err != nil {
			b.Fatal(err)
		}
		benchQuorum = q
	}
}

func BenchmarkMPathSelect(b *testing.B) {
	m, _ := NewMPath(10, 3)
	b.Run("fault_free", func(b *testing.B) { benchSelect(b, m, bitset.New(m.UniverseSize())) })
	b.Run("diagonal_dead", func(b *testing.B) { benchSelect(b, m, diagonalDead(m)) })
}

func BenchmarkMPathEdgeSelect(b *testing.B) {
	m, _ := NewMPathEdge(8, 3)
	benchSelect(b, m, bitset.New(m.UniverseSize()))
}
