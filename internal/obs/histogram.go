package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket histogram: observations are counted into
// the bucket whose upper bound is the smallest bound >= v, with an
// implicit +Inf overflow bucket. Observe is lock-free (one atomic add
// plus a CAS loop for the running sum) and never allocates; quantile
// extraction is a cold path. All methods are no-ops on a nil receiver.
type Histogram struct {
	bounds []float64 // sorted upper bounds; bucket i counts v <= bounds[i]
	counts []atomic.Int64
	n      atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// NewHistogram returns a histogram over the given sorted upper bounds.
// Most callers want DurationBuckets or SizeBuckets.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Inlined binary search: sort.SearchFloat64s would work but this
	// keeps the fast path free of interface and closure machinery.
	i, j := 0, len(h.bounds)
	for i < j {
		m := (i + j) / 2
		if v > h.bounds[m] {
			i = m + 1
		} else {
			j = m
		}
	}
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations, or 0 on a nil receiver.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observed values, or 0 on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile returns an upper estimate of the q-quantile (q in [0, 1]): the
// upper bound of the bucket holding the rank-⌈q·n⌉ sample. The estimate
// is exact to within one bucket's resolution; with the default
// exponential buckets that is a ≤19% relative error. Returns 0 with no
// observations or on a nil receiver.
func (h *Histogram) Quantile(q float64) float64 { return QuantileOf(q, h) }

// QuantileOf returns the q-quantile of the merged distribution of the
// given histograms, which must share one bucket layout (nil histograms
// are skipped). This is how read- and write-latency histograms combine
// into a single per-op quantile without double accounting.
//
// Every bucket is read once and the total is the sum of those same
// reads: taking it from Count() while writers advance the buckets would
// pair a stale rank with newer buckets and land it in too low a bucket.
func QuantileOf(q float64, hs ...*Histogram) float64 {
	var bounds []float64
	var cums []int64 // merged cumulative counts
	for _, h := range hs {
		if h == nil {
			continue
		}
		b, c := h.buckets()
		if cums == nil {
			bounds, cums = b, c
			continue
		}
		if len(bounds) != len(b) {
			panic("obs: QuantileOf over histograms with different bucket layouts")
		}
		for i := range cums {
			cums[i] += c[i]
		}
	}
	if len(bounds) == 0 {
		return 0
	}
	total := cums[len(cums)-1]
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	for i, cum := range cums[:len(bounds)] {
		if cum >= rank {
			return bounds[i]
		}
	}
	return bounds[len(bounds)-1] // overflow bucket: clamp to the last bound
}

// DurationQuantile is QuantileOf converted to a time.Duration.
func DurationQuantile(q float64, hs ...*Histogram) time.Duration {
	return time.Duration(QuantileOf(q, hs...) * float64(time.Second))
}

// buckets returns a point-in-time copy of the per-bucket cumulative
// counts in Prometheus le-semantics: cums[i] counts samples <= bounds[i],
// with one extra +Inf entry: the total of the counts read, which is
// Count() once writers are quiet.
func (h *Histogram) buckets() (bounds []float64, cums []int64) {
	if h == nil {
		return nil, nil
	}
	cums = make([]int64, len(h.counts))
	var run int64
	for i := range h.counts {
		run += h.counts[i].Load()
		cums[i] = run
	}
	return h.bounds, cums
}

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start and growing by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets spans 1µs to ~115s with 2^(1/4) growth (108 buckets),
// so latency quantiles resolve to within ~19%: fine enough to compare
// p50/p95/p99 across runs, coarse enough that a histogram costs under
// 1KB.
var DurationBuckets = ExpBuckets(1e-6, math.Pow(2, 0.25), 108)

// SizeBuckets spans 1 to 4096 in powers of two — sized for batch-frame
// op counts and group-commit fsync batches.
var SizeBuckets = ExpBuckets(1, 2, 13)
