package faults

import (
	"context"
	"sync"
	"testing"

	"bqs/internal/sim"
	"bqs/internal/systems"
)

var ctx = context.Background()

// newThresholdCluster builds a cluster over Threshold(n=4b+1, ℓ=3b+1).
func newThresholdCluster(t *testing.T, b int, seed int64) *sim.Cluster {
	t.Helper()
	sys, err := systems.NewMaskingThreshold(4*b+1, b)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sim.NewCluster(sys, b, sim.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fakeLoads is a settable LoadSource (and PhaseSource) for steering the
// targeted and timing schedulers in tests.
type fakeLoads struct {
	mu     sync.Mutex
	prof   []float64
	phases int64
}

func (f *fakeLoads) LoadProfile() []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]float64(nil), f.prof...)
}

func (f *fakeLoads) Phases() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.phases
}

func (f *fakeLoads) set(prof []float64, phases int64) {
	f.mu.Lock()
	f.prof = append([]float64(nil), prof...)
	f.phases = phases
	f.mu.Unlock()
}

// trackingFlipper counts how many servers are corrupt at any instant and
// remembers the high-water mark — the budget invariant's witness.
type trackingFlipper struct {
	mu      sync.Mutex
	corrupt map[int]sim.Behavior
	peak    int
}

func newTrackingFlipper() *trackingFlipper {
	return &trackingFlipper{corrupt: make(map[int]sim.Behavior)}
}

func (tf *trackingFlipper) Flip(_ context.Context, server int, b sim.Behavior) error {
	tf.mu.Lock()
	defer tf.mu.Unlock()
	if b == sim.Correct {
		delete(tf.corrupt, server)
	} else {
		tf.corrupt[server] = b
		if len(tf.corrupt) > tf.peak {
			tf.peak = len(tf.corrupt)
		}
	}
	return nil
}

func (tf *trackingFlipper) snapshot() (map[int]sim.Behavior, int) {
	tf.mu.Lock()
	defer tf.mu.Unlock()
	out := make(map[int]sim.Behavior, len(tf.corrupt))
	for s, b := range tf.corrupt {
		out[s] = b
	}
	return out, tf.peak
}

func TestAdversaryTimingAlternates(t *testing.T) {
	loads := &fakeLoads{}
	loads.set([]float64{0.9, 0.1, 0.1, 0.1}, 0)
	tf := newTrackingFlipper()
	a, err := NewAdversary(AdversaryConfig{Kind: AdversaryTiming, B: 1}, tf, loads, 4)
	if err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	a.step(bg)
	corrupt, _ := tf.snapshot()
	if corrupt[0] != sim.ByzantineStale {
		t.Fatalf("even phases: corrupt = %v, want server 0 byz-stale", corrupt)
	}
	// Advance the phase counter to odd: the holdover victim is re-flipped
	// to the equivocating mode.
	loads.set([]float64{0.9, 0.1, 0.1, 0.1}, 1)
	a.step(bg)
	corrupt, _ = tf.snapshot()
	if corrupt[0] != sim.ByzantineEquivocate {
		t.Fatalf("odd phases: corrupt = %v, want server 0 byz-equivocate", corrupt)
	}
}

func TestAdversaryAgainstCluster(t *testing.T) {
	// End to end against a real in-memory fleet: the targeted adversary
	// reads the cluster's own LoadProfile and must settle on the servers
	// the strategy actually loads.
	c := newThresholdCluster(t, 1, 13)
	defer c.Close()
	cl := c.NewClient(1)
	for i := 0; i < 20; i++ {
		if err := cl.Write(ctx, "warm"); err != nil {
			t.Fatal(err)
		}
	}
	a, err := NewAdversary(AdversaryConfig{Kind: AdversaryTargeted, B: 1}, c, c, c.N())
	if err != nil {
		t.Fatal(err)
	}
	a.step(ctx)
	victims := a.Victims()
	if len(victims) != 1 {
		t.Fatalf("victims = %v", victims)
	}
	prof := c.LoadProfile()
	for i, w := range prof {
		if w > prof[victims[0]]+1e-12 {
			t.Errorf("victim %d (weight %g) is not the heaviest; server %d has %g",
				victims[0], prof[victims[0]], i, w)
		}
	}
	// The flip really landed on the fleet.
	if _, byz := c.FaultCounts(); byz != 0 {
		t.Fatalf("targeted default should crash, not byzantine (got %d byzantine)", byz)
	}
	crashed, _ := c.FaultCounts()
	if crashed != 1 {
		t.Fatalf("crashed = %d, want 1", crashed)
	}
}
