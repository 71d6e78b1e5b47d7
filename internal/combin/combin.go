// Package combin provides the small combinatorial toolkit the quorum
// constructions and measures rely on: binomial coefficients (exact and
// floating point), k-subset enumeration, and the binomial tail bounds used
// in the paper's availability analysis (Lemma A.2 and the Chernoff bound
// of Proposition 6.3).
package combin

import (
	"errors"
	"fmt"
	"math"
)

// ErrOverflow is returned by Binomial when the exact result does not fit
// in an int64.
var ErrOverflow = errors.New("combin: binomial coefficient overflows int64")

// Binomial returns C(n, k) exactly, or ErrOverflow if the value exceeds
// int64 range. C(n, k) = 0 for k < 0 or k > n; n must be non-negative.
func Binomial(n, k int) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("combin: negative n=%d", n)
	}
	if k < 0 || k > n {
		return 0, nil
	}
	if k > n-k {
		k = n - k
	}
	// Invariant: before iteration i, result = C(n−k+i−1, i−1). Each step
	// multiplies by (n−k+i)/i. Reducing the denominator against result
	// first makes the remaining denominator coprime to result, so it must
	// divide the numerator exactly (the product is the integer C(n−k+i, i)).
	var result int64 = 1
	for i := 1; i <= k; i++ {
		num := int64(n - k + i)
		den := int64(i)
		g := gcd(result, den)
		result /= g
		den /= g
		num /= den
		if num != 0 && result > math.MaxInt64/num {
			return 0, ErrOverflow
		}
		result *= num
	}
	return result, nil
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}

// BinomialFloat returns C(n, k) as a float64 computed in log space, which
// is accurate enough for probability formulas at any size used here.
func BinomialFloat(n, k int) float64 {
	if k < 0 || k > n || n < 0 {
		return 0
	}
	return math.Exp(LogBinomial(n, k))
}

// LogBinomial returns ln C(n, k). It is -Inf outside the support.
func LogBinomial(n, k int) float64 {
	if k < 0 || k > n || n < 0 {
		return math.Inf(-1)
	}
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return lg - lk - lnk
}

// BinomialPMF returns P(X = k) for X ~ Binomial(n, p).
func BinomialPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	logp := LogBinomial(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(logp)
}

// BinomialTail returns P(X >= k) for X ~ Binomial(n, p). Above the mean
// (k > n·p) it sums the upper tail directly: its terms fall away from k,
// so a tail far below 1 keeps its relative accuracy instead of becoming
// 1 − (≈1). At or below the mean it returns 1 minus the lower tail.
func BinomialTail(n, k int, p float64) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	s := 0.0
	if float64(k) > float64(n)*p {
		for j := k; j <= n; j++ {
			s += BinomialPMF(n, j, p)
		}
		return clamp01(s)
	}
	for j := 0; j < k; j++ {
		s += BinomialPMF(n, j, p)
	}
	return clamp01(1 - s)
}

// TailUpperBound is Lemma A.2 of the paper:
// sum_{j>=d} C(k,j) p^j (1-p)^{k-j} <= C(k,d) p^d.
func TailUpperBound(k, d int, p float64) float64 {
	if d <= 0 {
		return 1
	}
	if d > k {
		return 0
	}
	return clamp01(math.Exp(LogBinomial(k, d) + float64(d)*math.Log(p)))
}

// ChernoffUpper bounds P(X >= (p+γ)·n) <= exp(−2nγ²) for X ~ Binomial(n, p),
// as used in Proposition 6.3's threshold availability estimate.
func ChernoffUpper(n int, gamma float64) float64 {
	if gamma <= 0 {
		return 1
	}
	return clamp01(math.Exp(-2 * float64(n) * gamma * gamma))
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Combinations calls fn with each k-subset of {0,…,n−1} in lexicographic
// order. The slice passed to fn is reused between calls; fn must copy it if
// it retains it. Enumeration stops early if fn returns false.
func Combinations(n, k int, fn func(comb []int) bool) {
	if k < 0 || k > n {
		return
	}
	comb := make([]int, k)
	for i := range comb {
		comb[i] = i
	}
	for {
		if !fn(comb) {
			return
		}
		// Advance to the next combination.
		i := k - 1
		for i >= 0 && comb[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		comb[i]++
		for j := i + 1; j < k; j++ {
			comb[j] = comb[j-1] + 1
		}
	}
}

// ISqrt returns ⌊√n⌋ for n ≥ 0.
func ISqrt(n int) int {
	if n < 0 {
		return 0
	}
	r := int(math.Sqrt(float64(n)))
	for r*r > n {
		r--
	}
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// CeilSqrt returns ⌈√n⌉ for n ≥ 0.
func CeilSqrt(n int) int {
	r := ISqrt(n)
	if r*r < n {
		r++
	}
	return r
}

// IPow returns base^exp for non-negative exp with int64 overflow check.
func IPow(base, exp int) (int64, error) {
	if exp < 0 {
		return 0, fmt.Errorf("combin: negative exponent %d", exp)
	}
	result := int64(1)
	b := int64(base)
	for i := 0; i < exp; i++ {
		if b != 0 && (result > math.MaxInt64/b || result < math.MinInt64/b) {
			return 0, ErrOverflow
		}
		result *= b
	}
	return result, nil
}
