//go:build !race

// The allocation pins live behind !race: the race detector instruments
// memory accesses in ways that can charge bookkeeping allocations to the
// measured function, so AllocsPerRun is only meaningful in a normal
// build. The race build still runs every functional test.

package obs

import (
	"testing"
	"time"
)

// TestHotPathZeroAllocs pins the telemetry contract the ISSUE requires:
// both the Noop (nil-instrument) path and the enabled path of every hot
// instrument allocate nothing. A regression here silently taxes every
// probe of every workload.
func TestHotPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bqs_test_ops_total")
	g := r.Gauge("bqs_test_level_count")
	h := r.Histogram("bqs_test_lat_seconds", DurationBuckets)

	var nilC *Counter
	var nilG *Gauge
	var nilH *Histogram

	cases := []struct {
		name string
		fn   func()
	}{
		{"nil Counter.Add", func() { nilC.Add(1) }},
		{"nil Gauge.Set", func() { nilG.Set(1) }},
		{"nil Histogram.Observe", func() { nilH.Observe(1) }},
		{"Counter.Add", func() { c.Add(1) }},
		{"Counter.Inc", func() { c.Inc() }},
		{"Gauge.Set", func() { g.Set(2.5) }},
		{"Histogram.Observe", func() { h.Observe(0.001) }},
		{"Histogram.ObserveDuration", func() { h.ObserveDuration(time.Millisecond) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}
