package projective

import (
	"errors"
	"testing"

	"bqs/internal/gf"
)

func TestPlaneOrders(t *testing.T) {
	for _, q := range []int{2, 3, 4, 5, 7, 8, 9} {
		p, err := New(q)
		if err != nil {
			t.Fatalf("New(%d): %v", q, err)
		}
		want := q*q + q + 1
		if p.NumPoints() != want || len(p.lines) != want {
			t.Errorf("PG(2,%d): %d points, %d lines, want %d",
				q, p.NumPoints(), len(p.lines), want)
		}
		if p.Order() != q {
			t.Errorf("Order = %d, want %d", p.Order(), q)
		}
	}
}

func TestNonPrimePowerOrderRejected(t *testing.T) {
	for _, q := range []int{1, 6, 10, 12} {
		if _, err := New(q); !errors.Is(err, gf.ErrNotPrimePower) {
			t.Errorf("New(%d) err = %v, want ErrNotPrimePower", q, err)
		}
	}
}

func TestFanoPlaneStructure(t *testing.T) {
	// PG(2,2) is the Fano plane: 7 points, 7 lines of 3 points each.
	p, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	lines := p.Lines()
	if len(lines) != 7 {
		t.Fatalf("Fano has %d lines", len(lines))
	}
	for _, ln := range lines {
		if len(ln) != 3 {
			t.Fatalf("Fano line %v has size %d", ln, len(ln))
		}
	}
}

func TestTwoPointsDetermineALine(t *testing.T) {
	// Dual axiom to line-intersection: every pair of points lies on exactly
	// one common line.
	for _, q := range []int{2, 3, 4, 5} {
		p, _ := New(q)
		n := p.NumPoints()
		onLine := make([][]int, n) // point → line indices
		for li := 0; li < len(p.lines); li++ {
			for _, pt := range p.Line(li) {
				onLine[pt] = append(onLine[pt], li)
			}
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				common := 0
				for _, la := range onLine[a] {
					for _, lb := range onLine[b] {
						if la == lb {
							common++
						}
					}
				}
				if common != 1 {
					t.Fatalf("PG(2,%d): points %d,%d share %d lines, want 1", q, a, b, common)
				}
			}
		}
	}
}

func TestLineReturnsCopy(t *testing.T) {
	p, _ := New(2)
	l1 := p.Line(0)
	l1[0] = -99
	l2 := p.Line(0)
	if l2[0] == -99 {
		t.Fatal("Line exposes internal state")
	}
}

func TestTransversalPropertyOfLines(t *testing.T) {
	// In an FPP the lines themselves are minimal transversals: every line
	// meets every other line (IS=1 system where quorums are self-dual).
	for _, q := range []int{2, 3, 4} {
		p, _ := New(q)
		lines := p.Lines()
		for i, a := range lines {
			for j, b := range lines {
				if i == j {
					continue
				}
				if intersectSorted(a, b) == 0 {
					t.Fatalf("PG(2,%d): line %d misses line %d", q, i, j)
				}
			}
		}
	}
}
