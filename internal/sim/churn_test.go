package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"bqs/internal/core"
	"bqs/internal/measures"
	"bqs/internal/systems"
)

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
	fc.OnFlip = func(FaultEvent, error) { hooked++ }
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

// TestForgivenessIsPerServer is the regression test for the old
// forgive-all bug: when suspicion exhausts the quorum space, only
// suspects that answer a probe may be forgiven — a genuinely dead server
// must stay suspected, not have its record erased along with everyone
// else's.
func TestForgivenessIsPerServer(t *testing.T) {
	mg, err := systems.NewMGrid(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(mg, 1, WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	const dead = 5
	if err := c.InjectFault(Crashed, dead); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(1)
	// Drive suspicion into exhaustion by hand: suspect everything.
	for i := 0; i < c.N(); i++ {
		cl.suspected.suspect(i)
	}
	q, err := cl.pickQuorum(ctx)
	if err != nil {
		t.Fatalf("pickQuorum after probe-on-forgive: %v", err)
	}
	if cl.suspected.contains(dead) == false {
		t.Fatal("dead server was forgiven without responding — forgive-all regression")
	}
	if n := cl.suspected.set.Count(); n != 1 {
		t.Fatalf("%d servers still suspected after rehabilitation, want only the dead one", n)
	}
	if q.Contains(dead) {
		t.Fatal("picked quorum contains the still-suspected dead server")
	}

	// When EVERY quorum depends on genuinely dead servers the client must
	// report a system crash, not spin: crash a full row — each M-Grid
	// quorum includes columns, and every column crosses row 0.
	if err := c.InjectFault(Crashed, 0, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	cl2 := c.NewClient(2)
	if err := cl2.Write(ctx, "doomed"); !errors.Is(err, core.ErrNoLiveQuorum) {
		t.Fatalf("write against a dead transversal = %v, want ErrNoLiveQuorum", err)
	}
}

// TestRecoveryRegainsTraffic is the churn acceptance test for suspicion
// aging: a crashed server that recovers mid-run must re-enter the
// client's candidate set after SuspicionTTL and — under the LP-optimal
// strategy, whose renormalization had shifted its weight away — regain a
// nonzero share of accesses. Run with -race: flips race against live
// clients.
func TestRecoveryRegainsTraffic(t *testing.T) {
	mg, err := systems.NewMGrid(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(mg, 1, WithSeed(97), WithOptimalStrategy())
	if err != nil {
		t.Fatal(err)
	}
	const victim = 6
	const ttl = 20 * time.Millisecond

	cl := c.NewClient(1)
	cl.SuspicionTTL = ttl
	if err := c.Flip(ctx, victim, Crashed); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50 && !cl.suspected.contains(victim); i++ {
		if err := cl.Write(ctx, fmt.Sprintf("crash-phase-%d", i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if !cl.suspected.contains(victim) {
		t.Skipf("client never touched server %d while it was down", victim)
	}

	// Recover, let the suspicion age out, and run concurrent traffic: the
	// recovered server must see probes again.
	if err := c.Flip(ctx, victim, Correct); err != nil {
		t.Fatal(err)
	}
	time.Sleep(ttl + 5*time.Millisecond)
	c.ResetLoadProfile()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := c.NewClient(10 + w)
			worker.SuspicionTTL = ttl
			for i := 0; i < 40; i++ {
				if err := worker.Write(ctx, fmt.Sprintf("recovered-%d-%d", w, i)); err != nil {
					t.Errorf("worker %d write %d: %v", w, i, err)
					return
				}
				if _, err := worker.Read(ctx); err != nil && !errors.Is(err, ErrNoCandidate) {
					t.Errorf("worker %d read %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	// The originally-suspicious client too — aging must clear ITS record.
	for i := 0; i < 40; i++ {
		if err := cl.Write(ctx, fmt.Sprintf("post-recovery-%d", i)); err != nil {
			t.Fatalf("post-recovery write %d: %v", i, err)
		}
	}
	wg.Wait()
	if f := c.LoadProfile()[victim]; f == 0 {
		t.Fatal("recovered server got zero accesses — still suspected forever")
	}
	if cl.suspected.contains(victim) {
		t.Fatal("original client still suspects the recovered server after TTL + successful traffic")
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
