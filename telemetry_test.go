package bqs_test

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"bqs"
	"bqs/internal/faults"
	"bqs/internal/harness"
	"bqs/internal/obs"
	"bqs/internal/sim"
)

// scrapeMetrics GETs /metrics from a live telemetry endpoint and parses
// the Prometheus text into name{labels} → value. It goes through HTTP on
// purpose: these tests certify what an external scraper sees, not what
// the Go API reports.
func scrapeMetrics(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestLiveLoadGaugeTracksLPUnderChurn is the first telemetry acceptance
// check: run churn (a crash and a recovery mid-workload) against an
// LP-strategy cluster, then measure steady-state traffic while scraping
// /metrics — the max per-server load gauge seen by the scraper must land
// within 10% of the strategy-load gauge on the same page. This certifies
// the whole path: live counters → GaugeFunc → Prometheus text → L(Q).
func TestLiveLoadGaugeTracksLPUnderChurn(t *testing.T) {
	sys, err := bqs.NewMGrid(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := bqs.NewMetricsRegistry()
	cluster, err := bqs.NewCluster(sys, 1, bqs.WithSeed(7),
		bqs.WithOptimalStrategy(), sim.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	// Churn phase: server 0 is crashed at t=0 and recovers at 30ms while
	// a duration-bounded workload (which therefore outlives the schedule)
	// runs — exercising suspicion, retries and rehabilitation with the
	// telemetry live.
	schedule, err := faults.ParseFaultSchedule("0ms:0:crashed,30ms:0:correct")
	if err != nil {
		t.Fatal(err)
	}
	driver := harness.StartChurn(cluster, schedule, 10*time.Millisecond, reg)
	harness.Run(cluster, harness.Workload{
		Clients: 4, Duration: 80 * time.Millisecond,
		SuspicionTTL: 10 * time.Millisecond, Timeout: time.Second, Seed: 7,
	})
	if err := driver.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"crashed", "correct"} {
		if v, ok := reg.Value("bqs_churn_flips_total", "to", want); !ok || v != 1 {
			t.Fatalf("bqs_churn_flips_total{to=%q} = %v, %v; want 1", want, v, ok)
		}
	}
	if crashed, _ := cluster.FaultCounts(); crashed != 0 {
		t.Fatalf("%d servers still crashed after the recovery flip", crashed)
	}

	// Measurement phase: reset the profile so the churn transient does not
	// pollute the steady-state load, then drive traffic while a scraper
	// polls the endpoint mid-run.
	cluster.ResetLoadProfile()
	done := make(chan harness.Counters, 1)
	go func() {
		done <- harness.Run(cluster, harness.Workload{Clients: 8, Ops: 100, Seed: 8})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		mid := scrapeMetrics(t, ms.Addr())
		if mid["bqs_cluster_phases_total"] > 0 {
			if _, ok := mid[`bqs_server_load{server="0"}`]; !ok {
				t.Fatal("mid-run scrape has phases but no per-server load series")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no phases observed via /metrics within 10s")
		}
	}
	c := <-done
	if c.Failures != 0 || c.Violations != 0 {
		t.Fatalf("measurement run not clean: %+v", c)
	}

	final := scrapeMetrics(t, ms.Addr())
	lp, ok := final["bqs_cluster_strategy_load"]
	if !ok {
		t.Fatal("scrape missing bqs_cluster_strategy_load")
	}
	maxLoad, servers := 0.0, 0
	for i := 0; i < sys.UniverseSize(); i++ {
		v, ok := final[fmt.Sprintf(`bqs_server_load{server="%d"}`, i)]
		if !ok {
			t.Fatalf("scrape missing bqs_server_load for server %d", i)
		}
		servers++
		if v > maxLoad {
			maxLoad = v
		}
	}
	if servers != sys.UniverseSize() {
		t.Fatalf("scraped %d load gauges, want %d", servers, sys.UniverseSize())
	}
	if dev := math.Abs(maxLoad/lp - 1); dev > 0.10 {
		t.Fatalf("scraped max server load %.4f is %.1f%% from the LP gauge %.4f (outside 10%%)",
			maxLoad, 100*dev, lp)
	}
	// The scraped peak and the Go API's peak are the same atomics.
	if peak := final["bqs_cluster_peak_load"]; math.Abs(peak-cluster.PeakLoad()) > 1e-9 {
		t.Fatalf("scraped peak %.6f != PeakLoad() %.6f", peak, cluster.PeakLoad())
	}
}

// TestCrashRateGaugeMatchesExact is the second telemetry acceptance
// check: after a 2000-epoch availability experiment the live
// bqs_system_crash_rate gauge must sit within 3 binomial standard
// deviations of CrashProbabilityExact, and the crash-epoch counter must
// agree exactly with the experiment's own tally — the Definition 3.10
// loop observed entirely through telemetry.
func TestCrashRateGaugeMatchesExact(t *testing.T) {
	sys, err := bqs.NewMGrid(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := bqs.NewMetricsRegistry()
	ms, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	cfg := harness.AvailabilityConfig{P: 0.1, Epochs: 2000, Seed: 11, MCTrials: 1000, Registry: reg}
	res, err := harness.RunAvailability(sys, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ExactOK {
		t.Fatal("exact F_p unavailable for MGrid(4,1) — enumeration regression")
	}

	m := scrapeMetrics(t, ms.Addr())
	if got := m["bqs_system_epochs_total"]; got != float64(cfg.Epochs) {
		t.Fatalf("bqs_system_epochs_total = %v, want %d", got, cfg.Epochs)
	}
	if got := m["bqs_system_crash_epochs_total"]; got != float64(res.Crashes) {
		t.Fatalf("bqs_system_crash_epochs_total = %v, want %d (the experiment's own tally)",
			got, res.Crashes)
	}
	rate := m["bqs_system_crash_rate"]
	if math.Abs(rate-res.Rate) > 1e-12 {
		t.Fatalf("crash-rate gauge %v != experiment rate %v", rate, res.Rate)
	}
	sigma := math.Sqrt(res.Exact * (1 - res.Exact) / float64(cfg.Epochs))
	if math.Abs(rate-res.Exact) > 3*sigma {
		t.Fatalf("crash-rate gauge %.4f outside 3σ of exact F_p %.4f (σ=%.4f)",
			rate, res.Exact, sigma)
	}
	if got := m["bqs_system_exact_crash_rate"]; got != res.Exact {
		t.Fatalf("bqs_system_exact_crash_rate = %v, want %v", got, res.Exact)
	}
}

// promHistogram collects one scraped histogram's (le, cumulative count)
// pairs, sorted by le with +Inf last.
type promHistogram struct {
	les  []float64
	cums []float64
}

func scrapeHistogram(m map[string]float64, name string) promHistogram {
	var h promHistogram
	prefix := name + `_bucket{le="`
	for k, v := range m {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		leStr := strings.TrimSuffix(strings.TrimPrefix(k, prefix), `"}`)
		le := math.Inf(1)
		if leStr != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(leStr, 64); err != nil {
				continue
			}
		}
		h.les = append(h.les, le)
		h.cums = append(h.cums, v)
	}
	sort.Sort(&h)
	return h
}

func (h *promHistogram) Len() int { return len(h.les) }
func (h *promHistogram) Swap(i, j int) {
	h.les[i], h.les[j] = h.les[j], h.les[i]
	h.cums[i], h.cums[j] = h.cums[j], h.cums[i]
}
func (h *promHistogram) Less(i, j int) bool { return h.les[i] < h.les[j] }

// TestReportQuantilesAgreeWithScrape is the quantile-agreement
// regression test behind the reservoir deletion: the p50/p99 the
// report prints and the quantile recomputed from the scraped
// Prometheus buckets must be the same number — one data source, whether
// you read the report or the endpoint.
func TestReportQuantilesAgreeWithScrape(t *testing.T) {
	sys, err := bqs.NewMaskingThreshold(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := bqs.NewMetricsRegistry()
	cluster, err := bqs.NewCluster(sys, 1, bqs.WithSeed(3), sim.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	c := harness.Run(cluster, harness.Workload{Clients: 4, Ops: 100, Keys: 8, Seed: 3})
	if c.Failures != 0 {
		t.Fatalf("run not clean: %+v", c)
	}
	if c.ReadLatency == nil || c.WriteLatency == nil {
		t.Fatal("instrumented run returned nil latency histograms")
	}
	if got := c.ReadLatency.Count() + c.WriteLatency.Count(); got != c.Succeeded() {
		t.Fatalf("histograms hold %d samples, want %d successful ops", got, c.Succeeded())
	}

	m := scrapeMetrics(t, ms.Addr())
	read := scrapeHistogram(m, "bqs_client_read_seconds")
	write := scrapeHistogram(m, "bqs_client_write_seconds")
	if read.Len() == 0 || read.Len() != write.Len() {
		t.Fatalf("scraped bucket counts: read %d, write %d", read.Len(), write.Len())
	}
	// Merge the two scraped histograms and extract the quantile exactly
	// as obs.QuantileOf defines it: the upper bound of the bucket holding
	// the rank-⌈q·n⌉ sample, overflow clamped to the last finite bound.
	quantile := func(q float64) float64 {
		total := read.cums[read.Len()-1] + write.cums[write.Len()-1]
		rank := math.Ceil(q * total)
		if rank < 1 {
			rank = 1
		}
		for i := range read.les {
			if read.cums[i]+write.cums[i] >= rank {
				if math.IsInf(read.les[i], 1) {
					return read.les[i-1]
				}
				return read.les[i]
			}
		}
		return read.les[read.Len()-2]
	}
	for _, q := range []float64{0.50, 0.95, 0.99} {
		fromScrape := quantile(q)
		fromReport := c.LatencyQuantile(q).Seconds()
		// The scraped le string round-trips its float64 exactly (strconv
		// 'g' with precision -1); the report side goes through a
		// time.Duration, which truncates to whole nanoseconds — so the two
		// must agree to within 1ns, not merely within a bucket.
		if math.Abs(fromScrape-fromReport) > 1e-9 {
			t.Fatalf("q=%v: scraped %v != reported %v — report and endpoint disagree",
				q, fromScrape, fromReport)
		}
	}
}

// TestMetricsOptional pins the Noop contract at the facade level: a
// cluster built without WithMetrics has a nil Registry, harness counters
// carry nil histograms, and quantiles read 0 — no telemetry, no cost, no
// crashes.
func TestMetricsOptional(t *testing.T) {
	sys, err := bqs.NewMaskingThreshold(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := bqs.NewCluster(sys, 1, bqs.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if cluster.Registry() != nil {
		t.Fatal("un-instrumented cluster has a registry")
	}
	c := harness.Run(cluster, harness.Workload{Clients: 2, Ops: 20, Seed: 1})
	if c.Failures != 0 {
		t.Fatalf("run not clean: %+v", c)
	}
	if c.ReadLatency != nil || c.WriteLatency != nil {
		t.Fatal("un-instrumented run returned histograms")
	}
	if q := c.LatencyQuantile(0.5); q != 0 {
		t.Fatalf("un-instrumented quantile = %v, want 0", q)
	}
}
