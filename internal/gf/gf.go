// Package gf implements arithmetic in finite (Galois) fields GF(p^r) for
// small prime powers. The boostFPP construction (Section 6 of the paper)
// composes a finite projective plane of order q over a threshold system;
// projective planes are known to exist for every prime power q, and their
// standard construction needs the field GF(q).
//
// Elements are represented as integers in [0, q): the base-p digits of an
// element are the coefficients of its polynomial representative modulo a
// fixed irreducible polynomial of degree r. Addition and multiplication are
// table-driven, which is exact and fast at the field sizes quorum systems
// use (q ≤ a few dozen).
package gf

import (
	"errors"
	"fmt"
)

// ErrNotPrimePower is returned by New when q cannot be written as p^r.
var ErrNotPrimePower = errors.New("gf: order is not a prime power")

// Field is GF(p^r) with table-driven arithmetic. Create with New.
type Field struct {
	p, r, q int
	add     [][]int
	mul     [][]int
}

// New constructs GF(q) for a prime power q = p^r, or returns
// ErrNotPrimePower.
func New(q int) (*Field, error) {
	p, r, ok := factorPrimePower(q)
	if !ok {
		return nil, fmt.Errorf("gf: q=%d: %w", q, ErrNotPrimePower)
	}
	f := &Field{p: p, r: r, q: q}
	var irr []int
	if r > 1 {
		var err error
		irr, err = findIrreducible(p, r)
		if err != nil {
			return nil, err
		}
	}
	f.buildTables(irr)
	return f, nil
}

// Add returns a+b in the field.
func (f *Field) Add(a, b int) int { return f.add[a][b] }

// Mul returns a·b in the field.
func (f *Field) Mul(a, b int) int { return f.mul[a][b] }

// toPoly expands an element into base-p digit coefficients (length r).
func (f *Field) toPoly(a int) []int {
	digits := make([]int, f.r)
	for i := 0; i < f.r; i++ {
		digits[i] = a % f.p
		a /= f.p
	}
	return digits
}

// fromPoly packs digit coefficients back into an element index.
func (f *Field) fromPoly(digits []int) int {
	a := 0
	for i := len(digits) - 1; i >= 0; i-- {
		a = a*f.p + digits[i]%f.p
	}
	return a
}

func (f *Field) buildTables(irr []int) {
	q := f.q
	f.add = make([][]int, q)
	f.mul = make([][]int, q)
	for a := 0; a < q; a++ {
		f.add[a] = make([]int, q)
		f.mul[a] = make([]int, q)
	}
	for a := 0; a < q; a++ {
		da := f.toPoly(a)
		for b := a; b < q; b++ {
			db := f.toPoly(b)
			// Addition: digit-wise mod p.
			sum := make([]int, f.r)
			for i := range sum {
				sum[i] = (da[i] + db[i]) % f.p
			}
			s := f.fromPoly(sum)
			f.add[a][b] = s
			f.add[b][a] = s
			// Multiplication: polynomial product reduced mod irr.
			prod := polyMul(da, db, f.p)
			prod = polyMod(prod, irr, f.p)
			m := f.fromPoly(prod)
			f.mul[a][b] = m
			f.mul[b][a] = m
		}
	}
}

// polyMul multiplies coefficient slices over GF(p).
func polyMul(a, b []int, p int) []int {
	out := make([]int, len(a)+len(b)-1)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			out[i+j] = (out[i+j] + ai*bj) % p
		}
	}
	return out
}

// polyMod reduces a modulo the monic polynomial m over GF(p). A nil or
// short modulus (degree < 1) leaves only the constant-degree digits, which
// happens exactly when r = 1 (no reduction needed beyond mod p).
func polyMod(a, m []int, p int) []int {
	if len(m) == 0 {
		return a
	}
	deg := len(m) - 1
	out := make([]int, len(a))
	copy(out, a)
	for i := len(out) - 1; i >= deg; i-- {
		c := out[i]
		if c == 0 {
			continue
		}
		// m is monic: subtract c·x^{i−deg}·m.
		for j := 0; j <= deg; j++ {
			out[i-deg+j] = ((out[i-deg+j]-c*m[j])%p + p*p) % p
		}
	}
	return out[:deg]
}

// findIrreducible searches monic irreducible polynomials of degree r over
// GF(p) by brute force, smallest encoding first (deterministic result).
func findIrreducible(p, r int) ([]int, error) {
	// Candidate encoded as digits of length r+1 with leading coeff 1.
	total := ipow(p, r)
	for enc := 0; enc < total; enc++ {
		cand := make([]int, r+1)
		e := enc
		for i := 0; i < r; i++ {
			cand[i] = e % p
			e /= p
		}
		cand[r] = 1
		if isIrreducible(cand, p) {
			return cand, nil
		}
	}
	return nil, fmt.Errorf("gf: no irreducible polynomial of degree %d over GF(%d)", r, p)
}

// isIrreducible tests a monic polynomial by trial division with every
// monic polynomial of degree 1..deg/2.
func isIrreducible(poly []int, p int) bool {
	deg := len(poly) - 1
	for d := 1; d <= deg/2; d++ {
		total := ipow(p, d)
		for enc := 0; enc < total; enc++ {
			div := make([]int, d+1)
			e := enc
			for i := 0; i < d; i++ {
				div[i] = e % p
				e /= p
			}
			div[d] = 1
			if polyDivides(div, poly, p) {
				return false
			}
		}
	}
	return true
}

// polyDivides reports whether monic d divides a over GF(p).
func polyDivides(d, a []int, p int) bool {
	rem := polyMod(a, d, p)
	for _, c := range rem {
		if c != 0 {
			return false
		}
	}
	return true
}

func factorPrimePower(q int) (p, r int, ok bool) {
	if q < 2 {
		return 0, 0, false
	}
	for p = 2; p*p <= q; p++ {
		if q%p == 0 {
			r = 0
			for x := q; x > 1; x /= p {
				if x%p != 0 {
					return 0, 0, false
				}
				r++
			}
			return p, r, true
		}
	}
	return q, 1, true // q itself prime
}

func ipow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}
