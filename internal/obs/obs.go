// Package obs is the repo's telemetry plane: allocation-conscious
// instruments (atomic counters and gauges, fixed-bucket histograms, a
// ring-buffer event log) behind a Registry that renders Prometheus text,
// expvar-style JSON, and — via Serve — a live HTTP endpoint with pprof.
//
// The design optimizes for two things the hot paths demand:
//
//   - Nil safety. Every instrument method is a no-op on a nil receiver,
//     and every Registry method is safe on a nil *Registry (returning nil
//     instruments). A layer built without telemetry holds nil pointers and
//     pays one predictable branch per call — the "Noop registry" the
//     benchmarks pin at zero allocations.
//   - Zero allocations on the fast path. Counter.Add, Gauge.Set and
//     Histogram.Observe never allocate; rendering and quantile extraction
//     are cold paths and may.
//
// Metric names are linted at registration time: they must follow the
// bqs_<layer>_<name>_<unit> convention (see ValidateName), so a typo'd or
// unconventional series panics in the first test that registers it rather
// than shipping an unscrapable name.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. All methods are no-ops on
// a nil receiver, so code paths instrumented against a Noop registry pay
// only the nil check.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count, or 0 on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value. All methods are no-ops on a
// nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value, or 0 on a nil receiver.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

type seriesKind int

const (
	kindCounter seriesKind = iota
	kindGauge
	kindGaugeFunc
	kindCounterFunc
	kindHistogram
)

func (k seriesKind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one registered time series: a metric name plus a rendered
// label set, bound to exactly one instrument.
type series struct {
	name   string
	labels string // rendered `{k="v",...}`, or "" when unlabeled
	kind   seriesKind

	counter *Counter
	gauge   *Gauge
	gfn     func() float64
	cfn     func() int64
	hist    *Histogram
}

// value returns the series' scalar value (histograms report their count).
func (s *series) value() float64 {
	switch s.kind {
	case kindCounter:
		return float64(s.counter.Value())
	case kindGauge:
		return s.gauge.Value()
	case kindGaugeFunc:
		return s.gfn()
	case kindCounterFunc:
		return float64(s.cfn())
	default:
		return float64(s.hist.Count())
	}
}

// Registry is a set of named instruments plus an event log. The zero
// value of *Registry — nil — is the Noop registry: registration returns
// nil instruments whose methods are no-ops, and exposition renders
// nothing. Registration is get-or-create: asking twice for the same name
// and label set returns the same instrument, which is how layers with
// many instances (several Disk stores, several clients) share one series.
type Registry struct {
	mu     sync.Mutex
	byKey  map[string]*series
	order  []*series
	events *EventLog
}

// NewRegistry returns an empty Registry with a 256-event ring log.
func NewRegistry() *Registry {
	return &Registry{
		byKey:  make(map[string]*series),
		events: NewEventLog(256),
	}
}

// register finds or creates the series for (name, labels); build is
// called under the lock to attach the instrument to a fresh series.
func (r *Registry) register(name string, kind seriesKind, labels []string, build func(*series)) *series {
	if err := ValidateName(name); err != nil {
		panic(fmt.Sprintf("obs: %v", err))
	}
	lbl := renderLabels(labels)
	key := name + lbl
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byKey[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: series %s re-registered as %s (was %s)", key, kind, s.kind))
		}
		return s
	}
	s := &series{name: name, labels: lbl, kind: kind}
	build(s)
	r.byKey[key] = s
	r.order = append(r.order, s)
	return s
}

// Counter returns the counter for name and the optional key/value label
// pairs, creating it on first use. Returns nil on a nil Registry.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, kindCounter, labels, func(s *series) { s.counter = &Counter{} }).counter
}

// Gauge returns the gauge for name and the optional key/value label
// pairs, creating it on first use. Returns nil on a nil Registry.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, kindGauge, labels, func(s *series) { s.gauge = &Gauge{} }).gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — the natural fit for values another layer already maintains
// (per-server access counters, live fault counts). Re-registering the
// same series replaces fn. No-op on a nil Registry.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	s := r.register(name, kindGaugeFunc, labels, func(s *series) {})
	r.mu.Lock()
	s.gfn = fn
	r.mu.Unlock()
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time; fn must be monotonic (typically an atomic the hot path already
// bumps). Re-registering the same series replaces fn. No-op on a nil
// Registry.
func (r *Registry) CounterFunc(name string, fn func() int64, labels ...string) {
	if r == nil {
		return
	}
	s := r.register(name, kindCounterFunc, labels, func(s *series) {})
	r.mu.Lock()
	s.cfn = fn
	r.mu.Unlock()
}

// Histogram returns the histogram for name and the optional key/value
// label pairs, creating it with the given bucket bounds on first use
// (later calls return the existing histogram regardless of bounds).
// Returns nil on a nil Registry.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, kindHistogram, labels, func(s *series) { s.hist = NewHistogram(bounds) }).hist
}

// Value returns the current scalar value of the series with the given
// name and label pairs (histograms report their observation count), and
// whether that series exists. Safe on a nil Registry.
func (r *Registry) Value(name string, labels ...string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	key := name + renderLabels(labels)
	r.mu.Lock()
	s, ok := r.byKey[key]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	return s.value(), true
}

// Eventf appends a formatted entry to the registry's ring-buffer event
// log. Safe on a nil Registry.
func (r *Registry) Eventf(format string, args ...any) {
	if r == nil {
		return
	}
	r.events.Addf(format, args...)
}

// Events returns the retained event log entries, oldest first. Safe on a
// nil Registry.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events.Snapshot()
}

// snapshot returns the registered series sorted by name then label set.
func (r *Registry) snapshot() []*series {
	r.mu.Lock()
	out := make([]*series, len(r.order))
	copy(out, r.order)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// renderLabels renders key/value pairs as a Prometheus label block,
// preserving caller order: {k="v",k2="v2"}. Empty input renders "".
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: odd label list; want key/value pairs")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(labels[i+1])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// allowedUnits is the closed set of terminal name tokens: the unit (or
// unit-like kind) every metric name must end in.
var allowedUnits = map[string]bool{
	"total":   true, // monotonic counters
	"seconds": true, // durations (histograms or gauges)
	"bytes":   true,
	"size":    true, // dimensionless size distributions (histograms)
	"ops":     true, // operation-count distributions (histograms)
	"frames":  true, // wire-frame-count distributions (histograms)
	"load":    true, // paper quantities: Definition 3.8 load values
	"bound":   true, // analytic bounds (Theorem 4.1)
	"rate":    true, // dimensionless rates in [0, 1]
	"ratio":   true,
	"count":   true, // instantaneous counts (gauges)
	"servers": true, // universe subset sizes
	"epoch":   true, // configuration epoch number (reconfig control plane)
	"phase":   true, // state-machine ordinal (reconfig.Phase)
}

// ValidateName checks the bqs_<layer>_<name>_<unit> convention: the name
// is lowercase [a-z0-9_], starts with "bqs_", has at least three "_"
// separated tokens, and its final token is a recognized unit. Registration
// panics on violation — this is the registration-time metric-name lint.
func ValidateName(name string) error {
	toks := strings.Split(name, "_")
	if len(toks) < 3 || toks[0] != "bqs" {
		return fmt.Errorf("metric %q: want bqs_<layer>_<name>_<unit>", name)
	}
	for _, t := range toks {
		if t == "" {
			return fmt.Errorf("metric %q: empty name token", name)
		}
		for _, c := range t {
			if (c < 'a' || c > 'z') && (c < '0' || c > '9') {
				return fmt.Errorf("metric %q: token %q is not lowercase alphanumeric", name, t)
			}
		}
	}
	if unit := toks[len(toks)-1]; !allowedUnits[unit] {
		return fmt.Errorf("metric %q: unknown unit suffix %q", name, unit)
	}
	return nil
}
