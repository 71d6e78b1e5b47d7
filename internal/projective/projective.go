// Package projective constructs finite projective planes PG(2, q), the
// regular quorum systems at the heart of the paper's boostFPP construction
// (Section 6). An FPP of order q has n = q²+q+1 points; its lines are the
// quorums: any two lines meet in exactly one point (IS = 1), every line has
// q+1 points, and the minimal transversals are exactly the lines
// (MT = q+1). The load is (q+1)/n ≈ 1/√n, optimal for regular systems
// [NW98].
//
// The construction is the standard one over GF(q): points are the
// one-dimensional subspaces of GF(q)³, lines the two-dimensional ones, and
// incidence is orthogonality of homogeneous coordinates.
package projective

import (
	"fmt"
	"sort"

	"bqs/internal/gf"
)

// Plane is a finite projective plane of order q.
type Plane struct {
	order  int
	points [][3]int // normalized homogeneous coordinates
	lines  [][]int  // lines[i] = sorted indices of incident points
}

// New constructs PG(2, q). It fails if q is not a prime power (planes of
// non-prime-power order are not known to exist; the construction needs
// GF(q)).
func New(q int) (*Plane, error) {
	field, err := gf.New(q)
	if err != nil {
		return nil, fmt.Errorf("projective: order %d: %w", q, err)
	}

	points := normalizedTriples(q)
	index := make(map[[3]int]int, len(points))
	for i, pt := range points {
		index[pt] = i
	}

	// Lines have the same normalized coordinate representatives (duality):
	// point (x:y:z) lies on line [l:m:n] iff lx+my+nz = 0.
	lineCoords := normalizedTriples(q)
	lines := make([][]int, len(lineCoords))
	for li, lc := range lineCoords {
		var incident []int
		for pi, pt := range points {
			s := field.Add(field.Add(field.Mul(lc[0], pt[0]), field.Mul(lc[1], pt[1])), field.Mul(lc[2], pt[2]))
			if s == 0 {
				incident = append(incident, pi)
			}
		}
		sort.Ints(incident)
		lines[li] = incident
	}

	p := &Plane{order: q, points: points, lines: lines}
	if err := p.Verify(); err != nil {
		return nil, err
	}
	return p, nil
}

// normalizedTriples enumerates canonical representatives of the projective
// points of GF(q)³: (1,a,b), (0,1,a), (0,0,1).
func normalizedTriples(q int) [][3]int {
	out := make([][3]int, 0, q*q+q+1)
	for a := 0; a < q; a++ {
		for b := 0; b < q; b++ {
			out = append(out, [3]int{1, a, b})
		}
	}
	for a := 0; a < q; a++ {
		out = append(out, [3]int{0, 1, a})
	}
	out = append(out, [3]int{0, 0, 1})
	return out
}

// Order returns q.
func (p *Plane) Order() int { return p.order }

// NumPoints returns q²+q+1.
func (p *Plane) NumPoints() int { return len(p.points) }

// Line returns the sorted point indices of line i. The returned slice is a
// copy.
func (p *Plane) Line(i int) []int {
	out := make([]int, len(p.lines[i]))
	copy(out, p.lines[i])
	return out
}

// Lines returns all lines as sorted point-index slices (deep copy).
func (p *Plane) Lines() [][]int {
	out := make([][]int, len(p.lines))
	for i := range p.lines {
		out[i] = p.Line(i)
	}
	return out
}

// Verify checks the projective plane axioms: point/line counts, uniform
// line size q+1, uniform point degree q+1, and pairwise line intersections
// of exactly one point.
func (p *Plane) Verify() error {
	q := p.order
	want := q*q + q + 1
	if len(p.points) != want || len(p.lines) != want {
		return fmt.Errorf("projective: PG(2,%d) has %d points and %d lines, want %d",
			q, len(p.points), len(p.lines), want)
	}
	degree := make([]int, len(p.points))
	for _, ln := range p.lines {
		if len(ln) != q+1 {
			return fmt.Errorf("projective: line size %d, want %d", len(ln), q+1)
		}
		for _, pt := range ln {
			degree[pt]++
		}
	}
	for pt, d := range degree {
		if d != q+1 {
			return fmt.Errorf("projective: point %d has degree %d, want %d", pt, d, q+1)
		}
	}
	for i := 0; i < len(p.lines); i++ {
		for j := i + 1; j < len(p.lines); j++ {
			if c := intersectSorted(p.lines[i], p.lines[j]); c != 1 {
				return fmt.Errorf("projective: lines %d,%d intersect in %d points, want 1", i, j, c)
			}
		}
	}
	return nil
}

func intersectSorted(a, b []int) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}
