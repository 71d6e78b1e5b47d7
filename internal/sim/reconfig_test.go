package sim

// Live-reconfiguration tests: the epoch-numbered cutover protocol of
// Cluster.Reconfigure. The rolling-resize history test sits beside the
// history checker it reuses (safety_invariant_test.go), so CI's -race
// pass audits the epoch gate itself: histories recorded across two
// cutovers must still satisfy the [MR98a] safe-register semantics with
// zero violations.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"bqs/internal/obs"
	"bqs/internal/reconfig"
	"bqs/internal/systems"
)

func mustTarget(t *testing.T, spec string, b int) reconfig.Record {
	t.Helper()
	rec, err := reconfig.ParseTarget(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestReconfigureResizeHandsOffState grows MGrid 25 → 36 and shrinks
// back, checking the epoch counter, the universe, the key handoff, and
// the telemetry that rides along.
func TestReconfigureResizeHandsOffState(t *testing.T) {
	reg := obs.NewRegistry()
	mg, err := systems.NewMGrid(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(mg, 1, WithSeed(7), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	w := c.NewClient(1)
	const keys = 10
	for i := 0; i < keys; i++ {
		if err := w.WriteKey(ctx, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := c.Reconfigure(ctx, mustTarget(t, "mgrid:36", 1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Record.Epoch != 1 || c.Epoch() != 1 {
		t.Fatalf("epoch after first resize: record %d, cluster %d; want 1", rep.Record.Epoch, c.Epoch())
	}
	if c.N() != 36 || c.System().UniverseSize() != 36 {
		t.Fatalf("universe after resize: N=%d, system n=%d; want 36", c.N(), c.System().UniverseSize())
	}
	if rep.HandoffKeys != keys {
		t.Fatalf("handed off %d keys, want %d", rep.HandoffKeys, keys)
	}
	r := c.NewClient(2)
	for i := 0; i < keys; i++ {
		got, err := r.ReadKey(ctx, fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatalf("read k%d after resize: %v", i, err)
		}
		if want := fmt.Sprintf("v%d", i); got.Value != want {
			t.Fatalf("k%d after resize: got %q, want %q", i, got.Value, want)
		}
	}
	if err := w.WriteKey(ctx, "post", "resize"); err != nil {
		t.Fatal(err)
	}

	// Shrink back to 25; values written in both epochs must survive.
	if _, err := c.Reconfigure(ctx, mustTarget(t, "mgrid:25", 1)); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != 2 || c.N() != 25 {
		t.Fatalf("after shrink: epoch %d, N=%d; want epoch 2, N=25", c.Epoch(), c.N())
	}
	got, err := r.ReadKey(ctx, "post")
	if err != nil || got.Value != "resize" {
		t.Fatalf("read post-resize key after shrink: %q, %v", got.Value, err)
	}
	if got, _ := r.ReadKey(ctx, "k3"); got.Value != "v3" {
		t.Fatalf("k3 after shrink: got %q, want v3", got.Value)
	}

	if v, ok := reg.Value("bqs_cluster_epoch"); !ok || v != 2 {
		t.Fatalf("bqs_cluster_epoch = %v, %v; want 2", v, ok)
	}
	if v, _ := reg.Value("bqs_reconfig_installs_total"); v != 2 {
		t.Fatalf("bqs_reconfig_installs_total = %v, want 2", v)
	}
	if v, _ := reg.Value("bqs_reconfig_phase"); v != float64(reconfig.Idle) {
		t.Fatalf("bqs_reconfig_phase = %v, want idle (%d)", v, reconfig.Idle)
	}
}

// TestReconfigureLoadConvergesToNewLP pins the acceptance criterion:
// under -strategy optimal, a resize re-solves the load LP and the
// measured post-resize load converges to the NEW system's L(Q) within
// 10%.
func TestReconfigureLoadConvergesToNewLP(t *testing.T) {
	mg, err := systems.NewMGrid(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(mg, 1, WithSeed(11), WithOptimalStrategy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	cl := c.NewClient(1)
	if err := cl.Write(ctx, "v"); err != nil {
		t.Fatal(err)
	}
	oldLoad := c.StrategyLoad()

	if _, err := c.Reconfigure(ctx, mustTarget(t, "mgrid:36", 1)); err != nil {
		t.Fatal(err)
	}
	want := c.StrategyLoad()
	if math.IsNaN(want) || want <= 0 {
		t.Fatalf("post-resize strategy load %v; want the re-solved LP optimum", want)
	}
	if want >= oldLoad {
		t.Fatalf("L(MGrid 36) = %g not below L(MGrid 25) = %g — the resize should shed load", want, oldLoad)
	}

	// Load accounting is per-epoch, so this traffic measures the new
	// system alone.
	for i := 0; i < 4000; i++ {
		if _, err := cl.Read(ctx); err != nil {
			t.Fatal(err)
		}
	}
	got := c.PeakLoad()
	if diff := math.Abs(got-want) / want; diff > 0.10 {
		t.Fatalf("measured post-resize load %g vs LP optimum %g: off by %.1f%% > 10%%", got, want, 100*diff)
	}
}

// TestReconfigureDrainTimeoutAborts wedges an operation in the current
// epoch so the drain cannot complete, and checks the abort path: the
// reconfiguration fails with the deadline error, the old epoch resumes
// serving, and the same resize succeeds once the op exits.
func TestReconfigureDrainTimeoutAborts(t *testing.T) {
	reg := obs.NewRegistry()
	mg, err := systems.NewMGrid(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(mg, 1, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stuck, err := c.enterOp(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	_, err = c.Reconfigure(ctx, mustTarget(t, "mgrid:36", 1))
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("reconfigure with a wedged op: err = %v, want DeadlineExceeded", err)
	}
	if c.Epoch() != 0 || c.N() != 25 {
		t.Fatalf("after aborted resize: epoch %d, N=%d; want the old epoch intact", c.Epoch(), c.N())
	}
	if v, _ := reg.Value("bqs_reconfig_aborts_total"); v != 1 {
		t.Fatalf("bqs_reconfig_aborts_total = %v, want 1", v)
	}

	// The abort reopened the gate: the old epoch serves again.
	cl := c.NewClient(1)
	if err := cl.Write(context.Background(), "still-serving"); err != nil {
		t.Fatalf("write after aborted resize: %v", err)
	}

	stuck.exit()
	rep, err := c.Reconfigure(context.Background(), mustTarget(t, "mgrid:36", 1))
	if err != nil {
		t.Fatalf("resize after the op exited: %v", err)
	}
	if rep.Record.Epoch != 1 || c.N() != 36 {
		t.Fatalf("after retry: epoch %d, N=%d; want epoch 1 over 36 servers", rep.Record.Epoch, c.N())
	}
	if got, err := cl.Read(context.Background()); err != nil || got.Value != "still-serving" {
		t.Fatalf("read after retried resize: %q, %v", got.Value, err)
	}
}

// TestReconfigureEpochRules covers the record arbitration: idempotent
// re-install of the current epoch, rejection of stale epochs, of a
// changed masking bound, and of unknown constructions.
func TestReconfigureEpochRules(t *testing.T) {
	c := newThresholdCluster(t, 1, 7)
	defer c.Close()
	ctx := context.Background()

	rec := mustTarget(t, "mgrid:36", 1)
	rep, err := c.Reconfigure(ctx, rec)
	if err != nil || rep.Record.Epoch != 1 {
		t.Fatalf("first resize: %+v, %v", rep, err)
	}

	// Idempotent: a record at the current epoch is the follower path.
	same := rec
	same.Epoch = 1
	rep, err = c.Reconfigure(ctx, same)
	if err != nil || rep.Record.Epoch != 1 || c.Epoch() != 1 {
		t.Fatalf("idempotent re-install: %+v, %v (epoch %d)", rep, err, c.Epoch())
	}
	if v := c.N(); v != 36 {
		t.Fatalf("idempotent re-install resized to N=%d", v)
	}

	if _, err := c.Reconfigure(ctx, mustTarget(t, "mgrid:25", 1)); err != nil {
		t.Fatal(err)
	}
	stale := rec
	stale.Epoch = 1
	if _, err := c.Reconfigure(ctx, stale); err == nil || !strings.Contains(err.Error(), "behind") {
		t.Fatalf("stale epoch: err = %v, want a behind-current error", err)
	}

	if _, err := c.Reconfigure(ctx, mustTarget(t, "threshold:9", 2)); err == nil || !strings.Contains(err.Error(), "masking bound") {
		t.Fatalf("b change: err = %v, want the immutable-b error", err)
	}

	if _, err := c.Reconfigure(ctx, reconfig.Record{Kind: "bogus", Universe: 9, B: 1}); err == nil {
		t.Fatal("unknown construction kind accepted")
	}
}

// TestReconfigureComposeSwapIn swaps a 5-server threshold for the
// Theorem 4.7 composition threshold:5 ∘ threshold:5 under -strategy
// optimal, and pins the re-solved LP at L(S)·L(R) = 0.8 · 0.8 = 0.64.
func TestReconfigureComposeSwapIn(t *testing.T) {
	sys, err := systems.NewMaskingThreshold(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(sys, 1, WithSeed(3), WithOptimalStrategy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	cl := c.NewClient(9)
	if err := cl.Write(ctx, "before"); err != nil {
		t.Fatal(err)
	}

	if _, err := c.Reconfigure(ctx, mustTarget(t, "compose:5x5", 1)); err != nil {
		t.Fatal(err)
	}
	if c.N() != 25 || !strings.Contains(c.System().Name(), "∘") {
		t.Fatalf("after swap-in: %s over %d servers, want the 25-server composition", c.System().Name(), c.N())
	}
	if got := c.StrategyLoad(); math.Abs(got-0.64) > 1e-9 {
		t.Fatalf("L(S∘R) = %g, want 0.64 = L(S)·L(R) per Theorem 4.7", got)
	}
	if got, err := cl.Read(ctx); err != nil || got.Value != "before" {
		t.Fatalf("pre-swap value through composed quorums: %q, %v", got.Value, err)
	}
	if err := cl.Write(ctx, "after"); err != nil {
		t.Fatal(err)
	}
	if got, err := cl.Read(ctx); err != nil || got.Value != "after" {
		t.Fatalf("post-swap write/read: %q, %v", got.Value, err)
	}
}
