package harness

import (
	"math"
	"strings"
	"testing"
	"time"

	"bqs/internal/sim"
)

func TestBuildSystem(t *testing.T) {
	cases := []struct {
		kind string
		b    int
		n    int
	}{
		{"threshold", 3, 13},
		{"grid", 3, 100},
		{"mgrid", 3, 64},
		{"boostfpp", 3, 169}, // FPP(3): 13 lines, each a Thresh over 4b+1 = 13 servers
		{"mpath", 3, 100},
	}
	for _, tc := range cases {
		sys, err := BuildSystem(tc.kind, tc.b)
		if err != nil {
			t.Errorf("BuildSystem(%q, %d): %v", tc.kind, tc.b, err)
			continue
		}
		if sys.UniverseSize() != tc.n {
			t.Errorf("BuildSystem(%q, %d): n=%d, want %d", tc.kind, tc.b, sys.UniverseSize(), tc.n)
		}
	}
	if _, err := BuildSystem("bogus", 1); err == nil {
		t.Error("BuildSystem accepted an unknown kind")
	}
	// The wheel is the unbalanced regular system: b = 0 only.
	if sys, err := BuildSystem("wheel", 0); err != nil {
		t.Errorf("BuildSystem(wheel, 0): %v", err)
	} else if sys.UniverseSize() != 12 {
		t.Errorf("wheel n = %d, want 12", sys.UniverseSize())
	}
	if _, err := BuildSystem("wheel", 1); err == nil {
		t.Error("wheel with b > 0 must be rejected")
	}
}

func TestStrategyOption(t *testing.T) {
	if opt, err := StrategyOption("uniform"); err != nil || opt != nil {
		t.Errorf("uniform: opt=%v err=%v, want nil option", opt, err)
	}
	if opt, err := StrategyOption("optimal"); err != nil || opt == nil {
		t.Errorf("optimal: opt=%v err=%v, want non-nil option", opt, err)
	}
	if _, err := StrategyOption("bogus"); err == nil {
		t.Error("bogus strategy accepted")
	}
}

// TestOptimalStrategyEndToEnd drives the full harness path — BuildSystem,
// StrategyOption, Run, Report — and checks the measured peak sits within
// 10% of the LP value the Report prints.
func TestOptimalStrategyEndToEnd(t *testing.T) {
	sys, err := BuildSystem("mgrid", 1)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := StrategyOption("optimal")
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := sim.NewCluster(sys, 1, sim.WithSeed(9), opt)
	if err != nil {
		t.Fatal(err)
	}
	c := Run(cluster, Workload{Clients: 8, Ops: 100})
	if c.Failures != 0 || c.Violations != 0 {
		t.Fatalf("fault-free run reported failures: %+v", c)
	}
	sum := Report(cluster, sys, 1, c)
	if math.IsNaN(sum.StrategyLoad) {
		t.Fatal("Report lost the strategy load")
	}
	if dev := math.Abs(sum.Peak/sum.StrategyLoad - 1); dev > 0.10 {
		t.Fatalf("measured peak %.4f is %.1f%% from LP L(Q) %.4f", sum.Peak, 100*dev, sum.StrategyLoad)
	}
}

func TestRunOpBounded(t *testing.T) {
	sys, err := BuildSystem("threshold", 2)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := sim.NewCluster(sys, 2, sim.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{Clients: 4, Ops: 10}
	c := Run(cluster, w)
	if got, want := c.Total(), int64(4*10); got != want {
		t.Fatalf("Total = %d, want %d", got, want)
	}
	// Fault-free: every op succeeds, split exactly by the (id+op) parity.
	if c.Failures != 0 || c.Violations != 0 || c.NoCandidates != 0 {
		t.Fatalf("fault-free run reported failures: %+v", c)
	}
	if c.Reads+c.Writes != c.Total() || c.Writes != c.Reads {
		t.Fatalf("mix skewed: %d reads, %d writes", c.Reads, c.Writes)
	}
	if c.Elapsed <= 0 {
		t.Fatal("Elapsed not measured")
	}
	if !strings.Contains(w.Describe(), "4 clients × 10 ops") {
		t.Fatalf("Describe() = %q", w.Describe())
	}
}

func TestRunTimeBounded(t *testing.T) {
	sys, err := BuildSystem("threshold", 1)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := sim.NewCluster(sys, 1, sim.WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{Clients: 2, Ops: 1, Duration: 50 * time.Millisecond}
	c := Run(cluster, w)
	if c.Total() <= 2 {
		t.Fatalf("time-bounded run stopped after Ops (%d ops) — Duration must override -ops", c.Total())
	}
	if c.Elapsed < w.Duration {
		t.Fatalf("run ended after %v, before the %v budget", c.Elapsed, w.Duration)
	}
	if !strings.Contains(w.Describe(), "2 clients for 50ms") {
		t.Fatalf("Describe() = %q", w.Describe())
	}
}

// TestRunDurationEndsAtBoundary pins the duration-mode fix: with a slow
// fleet and no per-op timeout, the run-wide deadline must cut the last
// operation at the stop boundary instead of letting it run a full
// multi-phase round trip past it, and the cut-off operation must be
// counted neither as a success nor as a failure.
func TestRunDurationEndsAtBoundary(t *testing.T) {
	sys, err := BuildSystem("threshold", 1)
	if err != nil {
		t.Fatal(err)
	}
	const latency = 100 * time.Millisecond
	cluster, err := sim.NewCluster(sys, 1, sim.WithSeed(7), sim.WithLatency(latency, 0))
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{Clients: 2, Duration: 150 * time.Millisecond} // Timeout: 0
	c := Run(cluster, w)
	// A write is two quorum phases (timestamps + store) of 100ms each, so
	// the old between-ops stop check overshot by up to ~200ms. The
	// deadline-derived contexts abort mid-probe at the boundary.
	if c.Elapsed > w.Duration+latency {
		t.Fatalf("run overshot the boundary: elapsed %v for a %v duration", c.Elapsed, w.Duration)
	}
	if c.Elapsed < w.Duration {
		t.Fatalf("run ended after %v, before the %v budget", c.Elapsed, w.Duration)
	}
	if c.Failures != 0 {
		t.Fatalf("boundary-cut operations were miscounted as failures: %+v", c)
	}
	if c.Succeeded() == 0 {
		t.Fatal("no operation completed inside the window")
	}
}

func TestCountersSucceededVsTotal(t *testing.T) {
	c := Counters{Reads: 3, Writes: 4, NoCandidates: 2, Failures: 5, Violations: 1}
	if got := c.Succeeded(); got != 7 {
		t.Errorf("Succeeded = %d, want 7", got)
	}
	if got := c.Total(); got != 15 {
		t.Errorf("Total = %d, want 15", got)
	}
}
