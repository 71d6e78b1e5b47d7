package sim

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bqs/internal/core"
	"bqs/internal/systems"
)

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
