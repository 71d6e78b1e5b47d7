package sim

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"bqs/internal/measures"
	"bqs/internal/systems"
)

// TestOptimalStrategyTracksLPLoad is the acceptance experiment for
// strategy-backed selection: balanced concurrent traffic against a
// fault-free M-Grid(4,1) cluster under WithOptimalStrategy must measure a
// busiest-server frequency within 10% of the LP-computed L(Q) — tighter
// than the ±15% the uniform pin in TestLoadProfileTracksPaperLoad allows.
// Run with -race; the strategy picker is shared by every client.
func TestOptimalStrategyTracksLPLoad(t *testing.T) {
	mg, err := systems.NewMGrid(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(mg, 1, WithSeed(211), WithOptimalStrategy())
	if err != nil {
		t.Fatal(err)
	}

	// The cluster's strategy load must be the LP optimum itself.
	ex, err := mg.Enumerate(0)
	if err != nil {
		t.Fatal(err)
	}
	lp, _, err := measures.Load(ex)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.StrategyLoad(); math.Abs(got-lp) > 1e-9 {
		t.Fatalf("StrategyLoad = %.6f, want LP optimum %.6f", got, lp)
	}

	var wg sync.WaitGroup
	for id := 0; id < 16; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := c.NewClient(id)
			for op := 0; op < 60; op++ {
				if op%6 == 0 {
					if err := cl.Write(ctx, fmt.Sprintf("v%d-%d", id, op)); err != nil {
						t.Errorf("client %d: %v", id, err)
						return
					}
					continue
				}
				if _, err := cl.Read(ctx); err != nil && !errors.Is(err, ErrNoCandidate) {
					t.Errorf("client %d: %v", id, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()

	got := c.PeakLoad()
	if got < 0.90*lp || got > 1.10*lp {
		t.Fatalf("peak measured load %.4f outside ±10%% of LP L(Q) = %.4f", got, lp)
	}
	t.Logf("peak load %.4f vs LP %.4f (%+.1f%%)", got, lp, 100*(got/lp-1))
}

// TestStrategySelectionRenormalizesUnderSuspicion crashes one server and
// checks a strategy-driven client conditions on the live set: once the
// crash is suspected, selection renormalizes over surviving quorums
// instead of sampling dead ones, so operations keep succeeding and the
// dead server receives no further probes.
func TestStrategySelectionRenormalizesUnderSuspicion(t *testing.T) {
	mg, err := systems.NewMGrid(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(mg, 1, WithSeed(223), WithOptimalStrategy())
	if err != nil {
		t.Fatal(err)
	}
	const dead = 5 // row 1, col 1: kills 9 of the 36 quorums... their weight shifts
	if err := c.InjectFault(Crashed, dead); err != nil {
		t.Fatal(err)
	}

	cl := c.NewClient(1)
	// Warm-up: enough operations to stumble on the crash and suspect it.
	for i := 0; i < 10; i++ {
		if err := cl.Write(ctx, fmt.Sprintf("warm-%d", i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if !cl.suspected.contains(dead) {
		t.Skipf("client never touched server %d during warm-up (strategy avoids it)", dead)
	}

	// Post-suspicion traffic must never probe the dead server again: the
	// renormalized strategy has zero weight on quorums containing it.
	c.ResetLoadProfile()
	for i := 0; i < 30; i++ {
		if err := cl.Write(ctx, fmt.Sprintf("op-%d", i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if _, err := cl.Read(ctx); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if f := c.LoadProfile()[dead]; f != 0 {
		t.Fatalf("dead server still at %.4f of accesses after suspicion — picker sampled dead quorums", f)
	}
	if c.PeakLoad() == 0 {
		t.Fatal("no traffic measured")
	}
}
