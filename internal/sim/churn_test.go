// External test package: faults imports sim, so a test that drives both
// cannot be package sim.
package sim_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	. "bqs/internal/faults"
	"bqs/internal/measures"
	. "bqs/internal/sim"
	"bqs/internal/systems"
)

var ctx = context.Background()

func TestParseFaultSchedule(t *testing.T) {
	s, err := ParseFaultSchedule("600ms:3:correct, 100ms:1-2:crashed ,250ms:0:byz-fabricate")
	if err != nil {
		t.Fatal(err)
	}
	want := []FaultEvent{
		{At: 100 * time.Millisecond, Server: 1, Behavior: Crashed},
		{At: 100 * time.Millisecond, Server: 2, Behavior: Crashed},
		{At: 250 * time.Millisecond, Server: 0, Behavior: ByzantineFabricate},
		{At: 600 * time.Millisecond, Server: 3, Behavior: Correct},
	}
	if got := s.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	if s.Horizon() != 600*time.Millisecond {
		t.Fatalf("horizon = %v", s.Horizon())
	}
	if s.MaxServer() != 3 {
		t.Fatalf("max server = %d", s.MaxServer())
	}
	if s.FaultFree() {
		t.Fatal("schedule with crashes reported fault-free")
	}
	ff, err := ParseFaultSchedule("10ms:0:correct,20ms:5:recover")
	if err != nil {
		t.Fatal(err)
	}
	if !ff.FaultFree() {
		t.Fatal("all-correct schedule not fault-free")
	}
	for _, bad := range []string{
		"100ms:1",            // missing behavior
		"abc:1:crashed",      // bad duration
		"100ms:-1:crashed",   // negative server
		"100ms:5-2:crashed",  // inverted range
		"100ms:1:exploded",   // unknown behavior
		"-5ms:1:crashed",     // negative offset
		"100ms:1:crashed:xx", // too many fields
	} {
		if _, err := ParseFaultSchedule(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestParseBehavior(t *testing.T) {
	cases := map[string]Behavior{
		"correct": Correct, "CRASHED": Crashed, " down ": Crashed,
		"byz-fabricate": ByzantineFabricate, "stale": ByzantineStale,
		"equivocate": ByzantineEquivocate, "recover": Correct,
	}
	for in, want := range cases {
		got, err := ParseBehavior(in)
		if err != nil || got != want {
			t.Errorf("ParseBehavior(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseBehavior("bogus"); err == nil {
		t.Error("unknown behavior accepted")
	}
	if KnownBehavior(Behavior(0)) || KnownBehavior(Behavior(99)) {
		t.Error("KnownBehavior accepted out-of-range values")
	}
}

// TestChurnScheduleReproducible pins the stochastic model's determinism
// contract: same seed, identical timeline; different seed, a different
// one; and per-server streams, so restricting Servers does not perturb
// the retained servers' events.
func TestChurnScheduleReproducible(t *testing.T) {
	cc := ChurnConfig{MTBF: 50 * time.Millisecond, MTTR: 20 * time.Millisecond}
	a, err := cc.Schedule(8, time.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cc.Schedule(8, time.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatal("same seed produced different schedules")
	}
	c, err := cc.Schedule(8, time.Second, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events(), c.Events()) {
		t.Fatal("different seeds produced identical schedules")
	}
	if a.Len() == 0 {
		t.Fatal("1s horizon at 50ms MTBF produced no churn")
	}

	// Per-server alternation: every server's event sequence must be
	// down, up, down, up, … starting from Correct.
	perServer := map[int][]Behavior{}
	for _, e := range a.Events() {
		perServer[e.Server] = append(perServer[e.Server], e.Behavior)
	}
	for s, seq := range perServer {
		for i, behavior := range seq {
			wantDown := i%2 == 0
			if wantDown && behavior != Crashed || !wantDown && behavior != Correct {
				t.Fatalf("server %d event %d = %v, want alternation from Crashed", s, i, behavior)
			}
		}
	}

	// Restricting to a subset keeps that subset's stream unchanged.
	cc.Servers = []int{3}
	only3, err := cc.Schedule(8, time.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	var want []FaultEvent
	for _, e := range a.Events() {
		if e.Server == 3 {
			want = append(want, e)
		}
	}
	if !reflect.DeepEqual(only3.Events(), want) {
		t.Fatal("per-server stream perturbed by restricting Servers")
	}
}

func TestParseChurn(t *testing.T) {
	cc, err := ParseChurn("mtbf=300ms, mttr=100ms, down=byz-stale, servers=2-4")
	if err != nil {
		t.Fatal(err)
	}
	if cc.MTBF != 300*time.Millisecond || cc.MTTR != 100*time.Millisecond ||
		cc.Down != ByzantineStale || !reflect.DeepEqual(cc.Servers, []int{2, 3, 4}) {
		t.Fatalf("cc = %+v", cc)
	}
	if f := cc.DownFraction(); math.Abs(f-0.25) > 1e-12 {
		t.Fatalf("down fraction = %g, want 0.25", f)
	}
	for _, bad := range []string{"mtbf=300ms", "mttr=1s", "mtbf=1s,mttr=0", "mtbf=1s,mttr=1s,bogus=1", "mtbf"} {
		if _, err := ParseChurn(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	// down=correct is rejected at generation time: churn must churn.
	cc, err = ParseChurn("mtbf=1s,mttr=1s,down=correct")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Schedule(4, time.Second, 1); err == nil {
		t.Error("down=correct schedule accepted")
	}
}

// recordingFlipper captures flips with their arrival order, failing those
// directed at servers in failOn.
type recordingFlipper struct {
	mu     sync.Mutex
	events []FaultEvent
	failOn map[int]bool
}

func (rf *recordingFlipper) Flip(_ context.Context, server int, b Behavior) error {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	if rf.failOn[server] {
		return errors.New("flip refused")
	}
	rf.events = append(rf.events, FaultEvent{Server: server, Behavior: b})
	return nil
}

func TestFaultControllerReplaysSchedule(t *testing.T) {
	s, err := ParseFaultSchedule("1ms:0:crashed,5ms:1:byz-fabricate,10ms:0:correct,12ms:9:crashed")
	if err != nil {
		t.Fatal(err)
	}
	rf := &recordingFlipper{failOn: map[int]bool{9: true}}
	fc := NewFaultController(rf, s)
	var hooked int
	fc.OnFlip = func(int, Behavior, error) { hooked++ }
	if err := fc.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []FaultEvent{
		{Server: 0, Behavior: Crashed},
		{Server: 1, Behavior: ByzantineFabricate},
		{Server: 0, Behavior: Correct},
	}
	if !reflect.DeepEqual(rf.events, want) {
		t.Fatalf("flips = %v, want %v", rf.events, want)
	}
	if fc.Flips() != 3 || fc.Misses() != 1 {
		t.Fatalf("flips = %d, misses = %d", fc.Flips(), fc.Misses())
	}
	if fc.FirstErr() == nil {
		t.Fatal("miss left no FirstErr")
	}
	if hooked != 4 {
		t.Fatalf("OnFlip saw %d events, want 4", hooked)
	}
}

func TestFaultControllerHonorsContext(t *testing.T) {
	s, err := ParseFaultSchedule("1ms:0:crashed,10s:1:crashed")
	if err != nil {
		t.Fatal(err)
	}
	rf := &recordingFlipper{}
	fc := NewFaultController(rf, s)
	cctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := fc.Run(cctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Run blocked %v past cancellation", elapsed)
	}
	if fc.Flips() != 1 {
		t.Fatalf("flips before cancel = %d, want 1", fc.Flips())
	}
}

// TestChurnFaultFreeKeepsLPConvergence pins the acceptance criterion that
// instrumenting a run with the churn engine must not move the
// measurement: a schedule that never leaves Correct, replayed live while
// 16 clients hammer an LP-strategy M-Grid, still converges to L(Q)
// within the same ±10% the un-churned acceptance test uses.
func TestChurnFaultFreeKeepsLPConvergence(t *testing.T) {
	mg, err := systems.NewMGrid(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(mg, 1, WithSeed(211), WithOptimalStrategy())
	if err != nil {
		t.Fatal(err)
	}
	ex, err := mg.Enumerate(0)
	if err != nil {
		t.Fatal(err)
	}
	lp, _, err := measures.Load(ex)
	if err != nil {
		t.Fatal(err)
	}

	s, err := ParseFaultSchedule("1ms:0-15:correct,5ms:0-15:correct,9ms:3:recover")
	if err != nil {
		t.Fatal(err)
	}
	if !s.FaultFree() {
		t.Fatal("test schedule must be fault-free")
	}
	fc := NewFaultController(c, s)
	done := make(chan error, 1)
	go func() { done <- fc.Run(context.Background()) }()

	var wg sync.WaitGroup
	for id := 0; id < 16; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := c.NewClient(id)
			cl.SuspicionTTL = 50 * time.Millisecond
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
	if err := <-done; err != nil {
		t.Fatalf("controller: %v", err)
	}
	if fc.Flips() != int64(s.Len()) {
		t.Fatalf("controller applied %d of %d flips", fc.Flips(), s.Len())
	}
	got := c.PeakLoad()
	if got < 0.90*lp || got > 1.10*lp {
		t.Fatalf("peak measured load %.4f outside ±10%% of LP L(Q) = %.4f under fault-free churn", got, lp)
	}
	t.Logf("peak load %.4f vs LP %.4f (%+.1f%%) with %d fault-free flips", got, lp, 100*(got/lp-1), fc.Flips())
}

func TestChurnRecoverRestartSchedule(t *testing.T) {
	cc := ChurnConfig{MTBF: 50, MTTR: 50, Recover: Restart}
	s, err := cc.Schedule(4, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	var downs, restarts, corrects int
	for _, e := range s.Events() {
		switch e.Behavior {
		case Crashed:
			downs++
		case Restart:
			restarts++
		case Correct:
			corrects++
		}
	}
	if downs == 0 || restarts == 0 || corrects != 0 {
		t.Fatalf("recover=restart schedule has %d downs, %d restarts, %d plain recoveries", downs, restarts, corrects)
	}

	if _, err := (ChurnConfig{MTBF: 50, MTTR: 50, Recover: ByzantineStale}).Schedule(4, 1000, 1); err == nil {
		t.Fatal("recover behavior other than correct/restart accepted")
	}
	if _, err := (ChurnConfig{MTBF: 50, MTTR: 50, Down: Restart}).Schedule(4, 1000, 1); err == nil {
		t.Fatal("down=restart accepted; restart is a recovery transition")
	}
}

func TestParseChurnRecover(t *testing.T) {
	cc, err := ParseChurn("mtbf=300ms,mttr=100ms,recover=restart")
	if err != nil {
		t.Fatal(err)
	}
	if cc.Recover != Restart {
		t.Fatalf("Recover = %v, want Restart", cc.Recover)
	}
	if _, err := ParseChurn("mtbf=300ms,mttr=100ms,recover=bogus"); err == nil {
		t.Fatal("bad recover value accepted")
	}
}
