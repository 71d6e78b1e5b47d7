package gf

import (
	"errors"
	"testing"
	"testing/quick"
)

var testOrders = []int{2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27}

func TestNewRejectsNonPrimePowers(t *testing.T) {
	for _, q := range []int{0, 1, 6, 10, 12, 15, 18, 100} {
		if _, err := New(q); !errors.Is(err, ErrNotPrimePower) {
			t.Errorf("New(%d) err = %v, want ErrNotPrimePower", q, err)
		}
	}
}

func TestOrderCharDegree(t *testing.T) {
	cases := []struct{ q, p, r int }{
		{2, 2, 1}, {4, 2, 2}, {8, 2, 3}, {9, 3, 2}, {27, 3, 3}, {25, 5, 2}, {7, 7, 1},
	}
	for _, c := range cases {
		f, err := New(c.q)
		if err != nil {
			t.Fatalf("New(%d): %v", c.q, err)
		}
		if f.q != c.q || f.p != c.p || f.r != c.r {
			t.Errorf("GF(%d): got (q,p,r)=(%d,%d,%d), want (%d,%d,%d)",
				c.q, f.q, f.p, f.r, c.q, c.p, c.r)
		}
	}
}

func TestFieldAxioms(t *testing.T) {
	for _, q := range testOrders {
		f, err := New(q)
		if err != nil {
			t.Fatalf("New(%d): %v", q, err)
		}
		t.Run("", func(t *testing.T) {
			checkAxioms(t, f)
		})
	}
}

func checkAxioms(t *testing.T, f *Field) {
	t.Helper()
	q := f.q
	for a := 0; a < q; a++ {
		// Identities.
		if f.Add(a, 0) != a {
			t.Fatalf("GF(%d): %d+0 = %d", q, a, f.Add(a, 0))
		}
		if f.Mul(a, 1) != a {
			t.Fatalf("GF(%d): %d·1 = %d", q, a, f.Mul(a, 1))
		}
		if f.Mul(a, 0) != 0 {
			t.Fatalf("GF(%d): %d·0 = %d", q, a, f.Mul(a, 0))
		}
		// Additive and multiplicative inverses exist.
		neg, inv := false, a == 0
		for b := 0; b < q; b++ {
			neg = neg || f.Add(a, b) == 0
			inv = inv || f.Mul(a, b) == 1
		}
		if !neg || !inv {
			t.Fatalf("GF(%d): %d has additive inverse %v, multiplicative inverse %v", q, a, neg, inv)
		}
	}
	for a := 0; a < q; a++ {
		for b := 0; b < q; b++ {
			if f.Add(a, b) != f.Add(b, a) {
				t.Fatalf("GF(%d): add not commutative at %d,%d", q, a, b)
			}
			if f.Mul(a, b) != f.Mul(b, a) {
				t.Fatalf("GF(%d): mul not commutative at %d,%d", q, a, b)
			}
			for c := 0; c < q; c++ {
				if f.Add(f.Add(a, b), c) != f.Add(a, f.Add(b, c)) {
					t.Fatalf("GF(%d): add not associative", q)
				}
				if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
					t.Fatalf("GF(%d): mul not associative", q)
				}
				if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
					t.Fatalf("GF(%d): distributivity fails at %d,%d,%d", q, a, b, c)
				}
			}
		}
	}
}

func TestNoZeroDivisors(t *testing.T) {
	for _, q := range testOrders {
		f, _ := New(q)
		for a := 1; a < q; a++ {
			for b := 1; b < q; b++ {
				if f.Mul(a, b) == 0 {
					t.Fatalf("GF(%d): zero divisor %d·%d", q, a, b)
				}
			}
		}
	}
}

// TestPow checks exponentiation by repeated Mul: a^0 = 1, a^1 = a,
// Lagrange's a^(q−1) = 1 for a ≠ 0, and the Frobenius identity a^q = a,
// which hold only when the multiplication table is a field's.
func TestPow(t *testing.T) {
	for _, q := range []int{4, 5, 8, 9} {
		f, _ := New(q)
		pow := func(a, e int) int {
			r := 1
			for ; e > 0; e-- {
				r = f.Mul(r, a)
			}
			return r
		}
		for a := 0; a < q; a++ {
			if pow(a, 0) != 1 {
				t.Errorf("GF(%d): %d^0 != 1", q, a)
			}
			if pow(a, 1) != a {
				t.Errorf("GF(%d): %d^1 != %d", q, a, a)
			}
			if a != 0 && pow(a, q-1) != 1 {
				t.Errorf("GF(%d): %d^(q−1) = %d, want 1", q, a, pow(a, q-1))
			}
			if pow(a, q) != a {
				t.Errorf("GF(%d): %d^q = %d, want %d (Frobenius)", q, a, pow(a, q), a)
			}
		}
	}
}

func TestMultiplicativeGroupCyclic(t *testing.T) {
	// GF(q)* is cyclic of order q−1: some generator must exist.
	for _, q := range []int{4, 8, 9, 16, 25} {
		f, _ := New(q)
		found := false
		for g := 1; g < q && !found; g++ {
			seen := make(map[int]bool, q-1)
			x := 1
			for i := 0; i < q-1; i++ {
				x = f.Mul(x, g)
				seen[x] = true
			}
			found = len(seen) == q-1
		}
		if !found {
			t.Errorf("GF(%d): no generator found", q)
		}
	}
}

func TestGF2Explicit(t *testing.T) {
	f, _ := New(2)
	if f.Add(1, 1) != 0 || f.Mul(1, 1) != 1 {
		t.Fatal("GF(2) tables wrong")
	}
}

func TestGF4Explicit(t *testing.T) {
	// GF(4) = {0,1,x,x+1} with x² = x+1 (irreducible x²+x+1).
	f, _ := New(4)
	// Element encoding: 2 = x, 3 = x+1. Characteristic 2: a+a = 0.
	for a := 0; a < 4; a++ {
		if f.Add(a, a) != 0 {
			t.Fatalf("GF(4): %d+%d != 0", a, a)
		}
	}
	// x·x must be x+1 or x... Whatever the modulus chosen, x² ∉ {0,1,x} ∪
	// consistency is already covered by axioms; check the specific modulus
	// x²+x+1 (the only irreducible quadratic over GF(2)).
	if f.Mul(2, 2) != 3 {
		t.Fatalf("GF(4): x² = %d, want 3 (x+1)", f.Mul(2, 2))
	}
}

func TestQuickAddMulClosure(t *testing.T) {
	f, _ := New(27)
	fn := func(a, b uint8) bool {
		x, y := int(a)%27, int(b)%27
		s, m := f.Add(x, y), f.Mul(x, y)
		return s >= 0 && s < 27 && m >= 0 && m < 27
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}
