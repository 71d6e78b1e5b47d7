package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety pins the Noop contract: every instrument method is a
// no-op on a nil receiver and every Registry method is safe on a nil
// *Registry — this is what lets un-instrumented layers hold nil pointers
// with no guards at the call sites.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil Counter.Value != 0")
	}
	var g *Gauge
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil Gauge.Value != 0")
	}
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(0)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil Histogram is not a no-op")
	}
	var l *EventLog
	l.Add("x")
	l.Addf("%d", 1)
	if l.Snapshot() != nil {
		t.Fatal("nil EventLog is not a no-op")
	}

	var r *Registry
	if r.Counter("bqs_test_things_total") != nil {
		t.Fatal("nil Registry.Counter != nil")
	}
	if r.Gauge("bqs_test_things_count") != nil {
		t.Fatal("nil Registry.Gauge != nil")
	}
	if r.Histogram("bqs_test_lat_seconds", DurationBuckets) != nil {
		t.Fatal("nil Registry.Histogram != nil")
	}
	r.GaugeFunc("bqs_test_fn_count", func() float64 { return 1 })
	r.CounterFunc("bqs_test_fn_total", func() int64 { return 1 })
	r.Eventf("ignored")
	if ev := r.Events(); ev != nil {
		t.Fatalf("nil Registry.Events = %v", ev)
	}
	if _, ok := r.Value("bqs_test_things_total"); ok {
		t.Fatal("nil Registry.Value reported a series")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil WritePrometheus: %q, %v", sb.String(), err)
	}
	sb.Reset()
	if err := r.WriteJSON(&sb); err != nil || strings.TrimSpace(sb.String()) != "{}" {
		t.Fatalf("nil WriteJSON: %q, %v", sb.String(), err)
	}
}

// TestGetOrCreate pins the sharing semantics several layers rely on: the
// same (name, labels) returns the same instrument, different label sets
// are distinct series, and a kind conflict panics.
func TestGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("bqs_test_frames_total", "dir", "in")
	b := r.Counter("bqs_test_frames_total", "dir", "in")
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	c := r.Counter("bqs_test_frames_total", "dir", "out")
	if a == c {
		t.Fatal("different labels returned the same counter")
	}
	a.Add(2)
	if v, ok := r.Value("bqs_test_frames_total", "dir", "in"); !ok || v != 2 {
		t.Fatalf("Value = %v, %v; want 2, true", v, ok)
	}
	if _, ok := r.Value("bqs_test_frames_total"); ok {
		t.Fatal("unlabeled lookup matched a labeled series")
	}

	h1 := r.Histogram("bqs_test_lat_seconds", DurationBuckets)
	h2 := r.Histogram("bqs_test_lat_seconds", SizeBuckets) // bounds ignored on re-registration
	if h1 != h2 {
		t.Fatal("histogram re-registration returned a distinct instrument")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("bqs_test_frames_total", "dir", "in")
}

// TestFuncSeries covers scrape-time series: GaugeFunc and CounterFunc
// read their closure at Value time, and re-registration replaces the
// closure (how a rebuilt cluster re-points the live gauges).
func TestFuncSeries(t *testing.T) {
	r := NewRegistry()
	x := 1.5
	r.GaugeFunc("bqs_test_live_load", func() float64 { return x })
	if v, ok := r.Value("bqs_test_live_load"); !ok || v != 1.5 {
		t.Fatalf("GaugeFunc Value = %v, %v", v, ok)
	}
	x = 2.5
	if v, _ := r.Value("bqs_test_live_load"); v != 2.5 {
		t.Fatalf("GaugeFunc did not track closure: %v", v)
	}
	r.GaugeFunc("bqs_test_live_load", func() float64 { return -1 })
	if v, _ := r.Value("bqs_test_live_load"); v != -1 {
		t.Fatalf("GaugeFunc re-registration did not replace fn: %v", v)
	}

	var n int64 = 7
	r.CounterFunc("bqs_test_live_total", func() int64 { return n })
	if v, ok := r.Value("bqs_test_live_total"); !ok || v != 7 {
		t.Fatalf("CounterFunc Value = %v, %v", v, ok)
	}
}

// TestValidateName pins the registration-time metric-name lint.
func TestValidateName(t *testing.T) {
	valid := []string{
		"bqs_server_load",
		"bqs_client_read_seconds",
		"bqs_wire_frames_total",
		"bqs_store_fsync_batch_size",
		"bqs_system_crash_rate",
		"bqs_cluster_load_lower_bound",
		"bqs_wire_open_conns_count",
		"bqs_cluster_byzantine_servers",
		"bqs_cluster_batch_ops",
		"bqs_wire_bytes_total",
	}
	for _, name := range valid {
		if err := ValidateName(name); err != nil {
			t.Errorf("ValidateName(%q) = %v, want nil", name, err)
		}
	}
	invalid := []string{
		"",
		"bqs",
		"bqs_total",                  // no layer token
		"server_load",                // missing bqs_ prefix
		"bqs_server_requests",        // unknown unit
		"bqs_Server_load",            // uppercase
		"bqs_server__load",           // empty token
		"bqs_server_load_",           // trailing empty token
		"bqs_server_latency-seconds", // non-alphanumeric
	}
	for _, name := range invalid {
		if err := ValidateName(name); err == nil {
			t.Errorf("ValidateName(%q) = nil, want error", name)
		}
	}
}

// TestRegisterLintPanics pins that a bad name dies at registration, not
// at scrape time.
func TestRegisterLintPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("registering an unlintable name did not panic")
		}
	}()
	r.Counter("bqs_server_requests")
}

// TestOddLabelsPanics pins the misuse guard on label pairs.
func TestOddLabelsPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("odd label list did not panic")
		}
	}()
	r.Counter("bqs_test_things_total", "keyonly")
}

// TestConcurrentExactCounts hammers one counter and one histogram from 64
// goroutines and asserts the totals are exact — run under -race this is
// the data-race certification of the whole instrument fast path.
func TestConcurrentExactCounts(t *testing.T) {
	const goroutines = 64
	const perG = 5000
	r := NewRegistry()
	c := r.Counter("bqs_test_ops_total")
	h := r.Histogram("bqs_test_batch_ops", SizeBuckets)

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				// Observed values are small integers so the CAS-summed
				// float64 total is exact, not approximately equal.
				h.Observe(float64(1 + (id+j)%8))
			}
		}(i)
	}
	// Concurrent readers assert invariants mid-hammer: counts never
	// decrease and quantiles stay ordered.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastCount int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := h.Count()
				if n < lastCount {
					t.Error("histogram count went backwards")
					return
				}
				lastCount = n
				p50, p95, p99 := h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
				if p50 > p95 || p95 > p99 {
					t.Errorf("quantiles out of order: p50=%v p95=%v p99=%v", p50, p95, p99)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	const total = goroutines * perG
	if c.Value() != total {
		t.Fatalf("counter = %d, want %d", c.Value(), total)
	}
	if h.Count() != total {
		t.Fatalf("histogram count = %d, want %d", h.Count(), total)
	}
	var wantSum float64
	for i := 0; i < goroutines; i++ {
		for j := 0; j < perG; j++ {
			wantSum += float64(1 + (i+j)%8)
		}
	}
	if h.Sum() != wantSum {
		t.Fatalf("histogram sum = %v, want %v (CAS sum must be exact on integers)", h.Sum(), wantSum)
	}
}

// TestConcurrentRegistration hammers get-or-create from 64 goroutines:
// all must land on the same instrument, and the count stays exact.
func TestConcurrentRegistration(t *testing.T) {
	const goroutines = 64
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("bqs_test_shared_total", "side", "a").Inc()
			}
		}()
	}
	wg.Wait()
	if v, _ := r.Value("bqs_test_shared_total", "side", "a"); v != goroutines*500 {
		t.Fatalf("shared counter = %v, want %d", v, goroutines*500)
	}
}

// TestEventLog pins ring semantics: capacity bounds retention, eviction
// is oldest-first.
func TestEventLog(t *testing.T) {
	l := NewEventLog(3)
	for _, msg := range []string{"a", "b", "c", "d", "e"} {
		l.Add(msg)
	}
	snap := l.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Snapshot len = %d, want 3", len(snap))
	}
	for i, want := range []string{"c", "d", "e"} {
		if snap[i].Msg != want {
			t.Fatalf("Snapshot[%d] = %q, want %q", i, snap[i].Msg, want)
		}
		if snap[i].At.IsZero() {
			t.Fatal("event has no timestamp")
		}
	}

	r := NewRegistry()
	r.Eventf("flip server %d", 3)
	ev := r.Events()
	if len(ev) != 1 || ev[0].Msg != "flip server 3" {
		t.Fatalf("registry events = %v", ev)
	}
}

// TestGaugeSetNaN pins that gauges carry NaN (the strategy-load gauge
// under uniform selection) without poisoning anything else.
func TestGaugeSetNaN(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("bqs_test_strategy_load")
	g.Set(math.NaN())
	if v, ok := r.Value("bqs_test_strategy_load"); !ok || !math.IsNaN(v) {
		t.Fatalf("Value = %v, %v; want NaN, true", v, ok)
	}
}
