// Package measures computes the two quality measures the paper studies:
// the load L(Q) of Definition 3.8 and the crash probability F_p(Q) of
// Definition 3.10, together with the lower bounds of Theorem 4.1,
// Corollary 4.2 and Propositions 4.3–4.5 that the constructions are
// benchmarked against.
package measures

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"bqs/internal/bitset"
	"bqs/internal/core"
	"bqs/internal/lp"
)

// ErrNotFair is returned by LoadFair for systems that are not (s,d)-fair.
var ErrNotFair = errors.New("measures: system is not fair")

// Load computes the exact system load L(Q) = min_w max_u l_w(u) of an
// explicit quorum system by solving the Definition 3.8 linear program, and
// returns an optimal access strategy alongside.
func Load(sys core.Enumerable) (float64, *core.Strategy, error) {
	quorums := sys.Quorums()
	m := len(quorums)
	n := sys.UniverseSize()

	// Variables: w_0..w_{m-1}, then t. Minimize t.
	obj := make([]float64, m+1)
	obj[m] = 1
	constraints := make([]lp.Constraint, 0, n+1)

	sumRow := make([]float64, m+1)
	for j := 0; j < m; j++ {
		sumRow[j] = 1
	}
	constraints = append(constraints, lp.Constraint{Coeffs: sumRow, Sense: lp.EQ, RHS: 1})

	for u := 0; u < n; u++ {
		row := make([]float64, m+1)
		touched := false
		for j, q := range quorums {
			if q.Contains(u) {
				row[j] = 1
				touched = true
			}
		}
		if !touched {
			continue // element in no quorum never carries load
		}
		row[m] = -1
		constraints = append(constraints, lp.Constraint{Coeffs: row, Sense: lp.LE, RHS: 0})
	}

	sol, err := lp.Solve(&lp.Problem{NumVars: m + 1, Objective: obj, Constraint: constraints})
	if err != nil {
		return 0, nil, fmt.Errorf("measures: load LP: %w", err)
	}
	strategy, err := core.NewStrategy(sol.X[:m])
	if err != nil {
		return 0, nil, fmt.Errorf("measures: LP produced invalid strategy: %w", err)
	}
	return sol.Value, strategy, nil
}

// LoadFair applies Proposition 3.9: for an (s,d)-fair system,
// L(Q) = c(Q)/n. It returns ErrNotFair when the precondition fails.
func LoadFair(sys *core.ExplicitSystem) (float64, error) {
	size, _, fair := sys.IsFair()
	if !fair {
		return 0, fmt.Errorf("measures: %s: %w", sys.Name(), ErrNotFair)
	}
	return float64(size) / float64(sys.UniverseSize()), nil
}

// EmpiricalLoad estimates the load induced by the system's built-in access
// strategy: it draws fault-free quorums and reports the access frequency
// of the busiest element. For a load-optimal strategy this converges to
// L(Q). A failed pick with nothing dead is a broken construction: an error.
func EmpiricalLoad(sys core.System, trials int, rng *rand.Rand) (float64, error) {
	if trials <= 0 {
		return 0, nil
	}
	n := sys.UniverseSize()
	none := bitset.New(n)
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		q, err := sys.SelectQuorum(rng, none)
		if err != nil {
			return 0, fmt.Errorf("measures: %s: fault-free pick %d: %w", sys.Name(), i, err)
		}
		q.Range(func(u int) bool {
			counts[u]++
			return true
		})
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	return float64(max) / float64(trials), nil
}

// LoadLowerBound is Theorem 4.1: every b-masking quorum system with
// smallest quorum c over n servers has L(Q) ≥ max{(2b+1)/c, c/n}.
func LoadLowerBound(n, b, c int) float64 {
	if c <= 0 || n <= 0 {
		return 0
	}
	byIntersection := float64(2*b+1) / float64(c)
	byQuorumSize := float64(c) / float64(n)
	return math.Max(byIntersection, byQuorumSize)
}

// GlobalLoadLowerBound is Corollary 4.2: L(Q) ≥ √((2b+1)/n) for every
// b-masking quorum system over n servers, regardless of quorum size.
func GlobalLoadLowerBound(n, b int) float64 {
	if n <= 0 {
		return 0
	}
	return math.Sqrt(float64(2*b+1) / float64(n))
}
