package combin

import (
	"errors"
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestBinomialSmall(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1},
		{5, 2, 10}, {10, 5, 252}, {49, 2, 1176},
		{52, 5, 2598960}, {61, 30, 232714176627630544 / 1}, // C(61,30)
		{4, 5, 0}, {4, -1, 0},
	}
	for _, c := range cases {
		got, err := Binomial(c.n, c.k)
		if err != nil {
			t.Errorf("Binomial(%d,%d) error: %v", c.n, c.k, err)
			continue
		}
		if got != c.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialNegativeN(t *testing.T) {
	if _, err := Binomial(-1, 0); err == nil {
		t.Fatal("Binomial(-1,0) should error")
	}
}

func TestBinomialOverflow(t *testing.T) {
	if _, err := Binomial(200, 100); !errors.Is(err, ErrOverflow) {
		t.Fatalf("Binomial(200,100) err = %v, want ErrOverflow", err)
	}
}

func TestBinomialPascal(t *testing.T) {
	// C(n,k) = C(n-1,k-1) + C(n-1,k) for all 1<=k<n<=40.
	for n := 1; n <= 40; n++ {
		for k := 1; k < n; k++ {
			a, _ := Binomial(n, k)
			b, _ := Binomial(n-1, k-1)
			c, _ := Binomial(n-1, k)
			if a != b+c {
				t.Fatalf("Pascal fails at n=%d k=%d: %d != %d+%d", n, k, a, b, c)
			}
		}
	}
}

func TestBinomialFloatMatchesExact(t *testing.T) {
	for n := 0; n <= 50; n++ {
		for k := 0; k <= n; k++ {
			exact, err := Binomial(n, k)
			if err != nil {
				continue
			}
			got := BinomialFloat(n, k)
			if rel := math.Abs(got-float64(exact)) / math.Max(1, float64(exact)); rel > 1e-9 {
				t.Fatalf("BinomialFloat(%d,%d) = %g, want %d (rel err %g)", n, k, got, exact, rel)
			}
		}
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 1} {
		for _, n := range []int{1, 7, 31} {
			s := 0.0
			for k := 0; k <= n; k++ {
				s += BinomialPMF(n, k, p)
			}
			if math.Abs(s-1) > 1e-9 {
				t.Errorf("PMF(n=%d,p=%g) sums to %g", n, p, s)
			}
		}
	}
}

func TestBinomialTail(t *testing.T) {
	// Direct check against brute-force sum.
	for _, p := range []float64{0.1, 0.25, 0.5} {
		for n := 1; n <= 20; n++ {
			for k := 0; k <= n+1; k++ {
				want := 0.0
				for j := k; j <= n; j++ {
					want += BinomialPMF(n, j, p)
				}
				if k <= 0 {
					want = 1
				}
				got := BinomialTail(n, k, p)
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("Tail(n=%d,k=%d,p=%g) = %g, want %g", n, k, p, got, want)
				}
			}
		}
	}
}

// bigTail is P(X ≥ k) for X ~ Binomial(n, p) summed in 512-bit floats.
func bigTail(n, k int, p *big.Float) *big.Float {
	q := new(big.Float).SetPrec(512).Sub(big.NewFloat(1), p)
	sum := new(big.Float).SetPrec(512)
	for j := k; j <= n; j++ {
		term := new(big.Float).SetPrec(512).SetInt(new(big.Int).Binomial(int64(n), int64(j)))
		for i := 0; i < j; i++ {
			term.Mul(term, p)
		}
		for i := j; i < n; i++ {
			term.Mul(term, q)
		}
		sum.Add(sum, term)
	}
	return sum
}

// TestBinomialTailRelativeError holds the tail to a multiple-precision
// reference where it is tiny, at the two cells the paper's tables print
// from it: Threshold(1021,255)'s F_0.125 = P(X ≥ 256) ≈ 7.057e-28, and
// RT(4,3,h=5)'s F_0.05, five levels of g(x) = P(Bin(4,x) ≥ 2) ≈ 8.948e-19.
// There 1 minus the lower tail gives ≈ 4e-13 and 0.
func TestBinomialTailRelativeError(t *testing.T) {
	check := func(name string, got float64, want *big.Float) {
		t.Helper()
		w, _ := want.Float64()
		if math.Abs(got-w) > 1e-9*w {
			t.Errorf("%s = %.6g, want %.6g", name, got, w)
		}
	}
	check("Tail(1021, 256, 0.125)", BinomialTail(1021, 256, 0.125),
		bigTail(1021, 256, new(big.Float).SetPrec(512).SetFloat64(0.125)))

	got, want := 0.05, new(big.Float).SetPrec(512).SetFloat64(0.05)
	for h := 0; h < 5; h++ {
		got, want = BinomialTail(4, 2, got), bigTail(4, 2, want)
	}
	check("RT(4,3,h=5) F_0.05", got, want)
}

func TestTailUpperBoundLemmaA2(t *testing.T) {
	// Lemma A.2: the true tail never exceeds C(k,d) p^d.
	for _, p := range []float64{0.05, 0.2, 0.5, 0.8} {
		for k := 1; k <= 25; k++ {
			for d := 0; d <= k; d++ {
				tail := BinomialTail(k, d, p)
				bound := TailUpperBound(k, d, p)
				if tail > bound+1e-9 {
					t.Fatalf("Lemma A.2 violated: k=%d d=%d p=%g tail=%g bound=%g",
						k, d, p, tail, bound)
				}
			}
		}
	}
}

func TestChernoffUpperDominatesTail(t *testing.T) {
	// P(X >= (p+γ)n) <= exp(-2nγ²).
	for _, p := range []float64{0.1, 0.25} {
		for _, n := range []int{20, 50, 100} {
			for _, gamma := range []float64{0.05, 0.1, 0.2} {
				k := int(math.Ceil((p + gamma) * float64(n)))
				tail := BinomialTail(n, k, p)
				bound := ChernoffUpper(n, gamma)
				if tail > bound+1e-9 {
					t.Fatalf("Chernoff violated: n=%d p=%g γ=%g tail=%g bound=%g",
						n, p, gamma, tail, bound)
				}
			}
		}
	}
}

func TestCombinationsCountAndOrder(t *testing.T) {
	n, k := 7, 3
	var all [][]int
	Combinations(n, k, func(c []int) bool {
		cp := make([]int, len(c))
		copy(cp, c)
		all = append(all, cp)
		return true
	})
	want, _ := Binomial(n, k)
	if int64(len(all)) != want {
		t.Fatalf("got %d combinations, want %d", len(all), want)
	}
	// Lexicographic order and strictly increasing within each.
	for i, c := range all {
		for j := 1; j < len(c); j++ {
			if c[j] <= c[j-1] {
				t.Fatalf("combination %v not strictly increasing", c)
			}
		}
		if i > 0 && !lexLess(all[i-1], c) {
			t.Fatalf("combinations out of order: %v then %v", all[i-1], c)
		}
	}
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func TestCombinationsEarlyStop(t *testing.T) {
	count := 0
	Combinations(10, 4, func([]int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d, want 3", count)
	}
}

func TestCombinationsEdge(t *testing.T) {
	calls := 0
	Combinations(5, 0, func(c []int) bool {
		calls++
		if len(c) != 0 {
			t.Errorf("k=0 combination should be empty, got %v", c)
		}
		return true
	})
	if calls != 1 {
		t.Errorf("k=0 should yield exactly one (empty) combination, got %d", calls)
	}
	Combinations(3, 5, func([]int) bool {
		t.Error("k>n should yield nothing")
		return true
	})
}

func TestISqrt(t *testing.T) {
	for n := 0; n <= 10000; n++ {
		r := ISqrt(n)
		if r*r > n || (r+1)*(r+1) <= n {
			t.Fatalf("ISqrt(%d) = %d", n, r)
		}
	}
	if CeilSqrt(50) != 8 || CeilSqrt(49) != 7 || CeilSqrt(0) != 0 {
		t.Error("CeilSqrt wrong")
	}
}

func TestIPow(t *testing.T) {
	got, err := IPow(4, 5)
	if err != nil || got != 1024 {
		t.Fatalf("IPow(4,5) = %d, %v", got, err)
	}
	if _, err := IPow(10, 30); !errors.Is(err, ErrOverflow) {
		t.Fatalf("IPow(10,30) should overflow, got %v", err)
	}
	if _, err := IPow(2, -1); err == nil {
		t.Fatal("negative exponent should error")
	}
	one, err := IPow(7, 0)
	if err != nil || one != 1 {
		t.Fatalf("IPow(7,0) = %d, %v", one, err)
	}
}

func TestQuickBinomialSymmetry(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw % 60)
		k := int(kRaw % 61)
		a, errA := Binomial(n, k)
		b, errB := Binomial(n, n-k)
		if k > n {
			return a == 0 && errA == nil
		}
		return errA == nil && errB == nil && a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
