package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrBadStrategy is returned when strategy weights are negative or do not
// sum to one.
var ErrBadStrategy = errors.New("core: strategy weights must be non-negative and sum to 1")

// Strategy is an access strategy w for an explicit quorum system
// (Definition 3.8): a probability distribution over its quorum list,
// aligned by index.
type Strategy struct {
	weights []float64
	cum     []float64 // cumulative weights for sampling
}

// NewStrategy validates and wraps a weight vector.
func NewStrategy(weights []float64) (*Strategy, error) {
	sum := 0.0
	for i, w := range weights {
		if w < -1e-12 || math.IsNaN(w) {
			return nil, fmt.Errorf("core: weight %d = %g: %w", i, w, ErrBadStrategy)
		}
		sum += math.Max(w, 0)
	}
	if math.Abs(sum-1) > 1e-6 {
		return nil, fmt.Errorf("core: weights sum to %g: %w", sum, ErrBadStrategy)
	}
	ws := make([]float64, len(weights))
	cum := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		ws[i] = math.Max(w, 0) / sum
		acc += ws[i]
		cum[i] = acc
	}
	return &Strategy{weights: ws, cum: cum}, nil
}

// UniformStrategy returns the strategy giving each of m quorums weight 1/m.
func UniformStrategy(m int) *Strategy {
	w := make([]float64, m)
	for i := range w {
		w[i] = 1.0 / float64(m)
	}
	s, _ := NewStrategy(w) // uniform weights always validate
	return s
}

// Weight returns w(Q_i).
func (st *Strategy) Weight(i int) float64 { return st.weights[i] }

// Len returns the number of quorums the strategy ranges over.
func (st *Strategy) Len() int { return len(st.weights) }

// Sample draws a quorum index from the strategy. A zero-weight quorum is
// never returned: index i is selected exactly when u ∈ [cum[i−1], cum[i]),
// an interval of length weights[i], which is empty for zero weights — in
// particular rng.Float64() returning exactly 0 cannot land on a leading
// zero-weight quorum.
func (st *Strategy) Sample(rng *rand.Rand) int {
	return st.sampleAt(rng.Float64())
}

// sampleAt maps u ∈ [0,1) to the smallest index whose cumulative weight
// strictly exceeds u.
func (st *Strategy) sampleAt(u float64) int {
	lo, hi := 0, len(st.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if st.cum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Rounding can leave the final cumulative weight marginally below 1;
	// a u in that gap lands on the last index, which may carry zero
	// weight. Step back to the nearest quorum with real weight.
	for lo > 0 && st.weights[lo] == 0 {
		lo--
	}
	return lo
}

// InducedLoads returns l_w(u) for every element u: the total weight of the
// quorums containing u (Definition 3.8).
func (st *Strategy) InducedLoads(sys Enumerable) []float64 {
	loads := make([]float64, sys.UniverseSize())
	for i, q := range sys.Quorums() {
		w := st.weights[i]
		if w == 0 {
			continue
		}
		q.Range(func(u int) bool {
			loads[u] += w
			return true
		})
	}
	return loads
}

// InducedSystemLoad returns L_w(Q) = max_u l_w(u).
func (st *Strategy) InducedSystemLoad(sys Enumerable) float64 {
	max := 0.0
	for _, l := range st.InducedLoads(sys) {
		if l > max {
			max = l
		}
	}
	return max
}
