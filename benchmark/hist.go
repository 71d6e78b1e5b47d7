package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// hist is a fixed-size log-linear histogram of durations in nanoseconds:
// every power of two is split into histSub equal sub-buckets, so a bucket
// is at most 1/histSub = 0.78 % wide relative to its lower edge. All
// memory is allocated by newHist, during set-up; observe allocates
// nothing, which keeps the generator's heap flat (a growing sample slice
// changed GC frequency and made M-Path throughput climb 8.3k → 13.1k ops/s
// inside one prototype run). The harness histograms in internal/obs are not
// used for latency: their neighbouring edges are 19 % apart.
type hist struct {
	counts []atomic.Uint32
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// histMaxExp bounds the range at 2^40 ns ≈ 18 minutes; slower
	// observations land in the last bucket.
	histMaxExp  = 40
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

func newHist() *hist { return &hist{counts: make([]atomic.Uint32, histBuckets)} }

// bucketOf maps a duration to its bucket: values below histSub map to
// themselves (1 ns buckets), larger ones to (exponent, top 7 mantissa bits).
func bucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 - histSubBits // v>>e lies in [histSub, 2·histSub)
	i := (e+1)*histSub + int(v>>uint(e)) - histSub
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketBounds is the inverse of bucketOf: bucket i covers [lo, hi).
func bucketBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	e := i/histSub - 1
	m := uint64(i%histSub + histSub)
	return float64(m << uint(e)), float64((m + 1) << uint(e))
}

func (h *hist) observe(ns int64) { h.counts[bucketOf(ns)].Add(1) }

// quantile returns the q-quantile, in nanoseconds, of the observations in
// all the given histograms together, interpolating linearly by rank inside
// the bucket that holds it. It returns NaN when there are no observations.
func quantile(q float64, hs ...*hist) float64 {
	var total uint64
	for _, h := range hs {
		for i := range h.counts {
			total += uint64(h.counts[i].Load())
		}
	}
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum float64
	for i := 0; i < histBuckets; i++ {
		var c uint64
		for _, h := range hs {
			c += uint64(h.counts[i].Load())
		}
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	_, hi := bucketBounds(histBuckets - 1)
	return hi
}

// median returns the median of xs, ignoring NaNs (a slice in which one
// kind of operation never completed has no p50); NaN when nothing is left.
// The even-length case averages the two middle values, as
// statistics.median does.
func median(xs []float64) float64 {
	s := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	if len(s) == 0 {
		return math.NaN()
	}
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
