package sim_test

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	. "bqs/internal/faults"
	. "bqs/internal/sim"
)

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
	corrupt map[int]Behavior
	peak    int
}

func newTrackingFlipper() *trackingFlipper {
	return &trackingFlipper{corrupt: make(map[int]Behavior)}
}

func (tf *trackingFlipper) Flip(_ context.Context, server int, b Behavior) error {
	tf.mu.Lock()
	defer tf.mu.Unlock()
	if b == Correct {
		delete(tf.corrupt, server)
	} else {
		tf.corrupt[server] = b
		if len(tf.corrupt) > tf.peak {
			tf.peak = len(tf.corrupt)
		}
	}
	return nil
}

func (tf *trackingFlipper) snapshot() (map[int]Behavior, int) {
	tf.mu.Lock()
	defer tf.mu.Unlock()
	out := make(map[int]Behavior, len(tf.corrupt))
	for s, b := range tf.corrupt {
		out[s] = b
	}
	return out, tf.peak
}

func TestParseAdversary(t *testing.T) {
	cfg, err := ParseAdversary("targeted")
	if err != nil || cfg.Kind != AdversaryTargeted || cfg.B != 0 {
		t.Fatalf("cfg = %+v, err %v", cfg, err)
	}
	cfg, err = ParseAdversary("random, b=2, behavior=byz-fabricate, interval=100ms, seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Kind != AdversaryRandom || cfg.B != 2 || cfg.Behavior != ByzantineFabricate ||
		cfg.Interval != 100*time.Millisecond || cfg.Seed != 9 {
		t.Fatalf("cfg = %+v", cfg)
	}
	for _, bad := range []string{"", "nope", "random,b=-1", "timing,interval=-5ms", "targeted,x=1", "random,b"} {
		if _, err := ParseAdversary(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestAdversaryDefaults(t *testing.T) {
	tf := newTrackingFlipper()
	a, err := NewAdversary(AdversaryConfig{Kind: AdversaryRandom, B: 1}, tf, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mode() != Crashed || a.Interval() != 25*time.Millisecond {
		t.Errorf("random defaults = %v/%v", a.Mode(), a.Interval())
	}
	a, err = NewAdversary(AdversaryConfig{Kind: AdversaryTiming, B: 1}, tf, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mode() != ByzantineStale {
		t.Errorf("timing default behavior = %v", a.Mode())
	}
	// Validation.
	if _, err := NewAdversary(AdversaryConfig{Kind: AdversaryTargeted, B: 1}, tf, nil, 4); err == nil {
		t.Error("targeted without loads accepted")
	}
	if _, err := NewAdversary(AdversaryConfig{Kind: AdversaryRandom, B: 5}, tf, nil, 4); err == nil {
		t.Error("budget beyond universe accepted")
	}
	if _, err := NewAdversary(AdversaryConfig{Kind: AdversaryRandom, B: 1, Behavior: Correct}, tf, nil, 4); err == nil {
		t.Error("behavior=correct accepted")
	}
	if _, err := NewAdversary(AdversaryConfig{}, tf, nil, 4); err == nil {
		t.Error("zero kind accepted")
	}
}

func TestAdversaryPickTargeted(t *testing.T) {
	loads := &fakeLoads{}
	loads.set([]float64{0.1, 0.9, 0.5, 0.9}, 0)
	a, err := NewAdversary(AdversaryConfig{Kind: AdversaryTargeted, B: 2}, newTrackingFlipper(), loads, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.PickVictims(); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("targeted picks = %v, want [1 3]", got)
	}
	// Re-aims live when the profile moves.
	loads.set([]float64{0.9, 0.1, 0.8, 0.1}, 0)
	if got := a.PickVictims(); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("after shift picks = %v, want [0 2]", got)
	}
	// All-zero profile (no traffic yet): deterministic first-b fallback.
	loads.set([]float64{0, 0, 0, 0}, 0)
	if got := a.PickVictims(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("cold picks = %v, want [0 1]", got)
	}
}

func TestAdversaryPickRandom(t *testing.T) {
	a, err := NewAdversary(AdversaryConfig{Kind: AdversaryRandom, B: 2, Seed: 3}, newTrackingFlipper(), nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 50; i++ {
		picks := a.PickVictims()
		if len(picks) != 2 {
			t.Fatalf("picks = %v, want 2 victims", picks)
		}
		for _, s := range picks {
			if s < 0 || s >= 6 {
				t.Fatalf("victim %d outside universe", s)
			}
			seen[s] = true
		}
	}
	if len(seen) < 4 {
		t.Errorf("random adversary only ever picked %v", seen)
	}
}

func TestAdversaryBudgetInvariant(t *testing.T) {
	tf := newTrackingFlipper()
	a, err := NewAdversary(AdversaryConfig{
		Kind: AdversaryRandom, B: 2, Seed: 5, Interval: time.Millisecond,
	}, tf, nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := a.Run(runCtx); err != context.DeadlineExceeded {
		t.Fatalf("Run = %v", err)
	}
	corrupt, peak := tf.snapshot()
	if peak > 2 {
		t.Errorf("budget exceeded: %d servers corrupt at once", peak)
	}
	if a.Ticks() < 10 {
		t.Errorf("only %d ticks in 100ms at 1ms interval", a.Ticks())
	}
	// Exit restores everyone.
	if len(corrupt) != 0 {
		t.Errorf("servers still corrupt after Run returned: %v", corrupt)
	}
	if len(a.Victims()) != 0 {
		t.Errorf("victims not cleared: %v", a.Victims())
	}
	if a.Misses() != 0 || a.FirstErr() != nil {
		t.Errorf("misses=%d firstErr=%v", a.Misses(), a.FirstErr())
	}
}
