package sim_test

// The safety-invariant checker: record concurrent read/write histories
// while an adversary corrupts servers within the masking budget, then
// assert the [MR98a] safe-register semantics offline —
//
//  1. no fabricated value is ever returned (masking must filter every
//     value the Byzantine servers invent), and
//  2. reads never travel backwards past a completed write: a read that
//     STARTS after write i COMPLETED returns write j ≥ i.
//
// Two scoping rules make the check sound.
//
// First, [MR98a] implements a SAFE variable: the freshness guarantee
// holds only for reads that overlap no write. A read concurrent with an
// in-flight write can legitimately see honest votes split between the
// old and new value, letting a single within-budget stale server's
// replay become the only b+1-voted candidate — so assertion 2 applies
// only to write-free reads (failed write attempts count as writes here;
// their windows are in the history too). Assertion 1 is unconditional
// for within-budget reads: any b+1 identical votes include an honest
// server, and honest servers only serve values a writer actually wrote,
// concurrency or not.
//
// Second, [MR98a] assumes a STATIC set of at most b faulty servers,
// while our adversary is mobile — it migrates corruption between ticks.
// An operation whose window straddles a migration can see two different
// servers answer Byzantine even though at most b were corrupt at any
// instant; from that operation's perspective the fault budget was
// exceeded and the protocol promises nothing. The checker therefore
// tracks each server's corruption intervals (via a Flipper wrapper with
// conservative timestamps) and asserts the register semantics exactly
// for the operations whose fault EXPOSURE — distinct servers corrupt at
// any point inside the op's window — stays ≤ b, requiring that a healthy
// share of reads qualify so the run proves something. Single-writer
// writes need no such filter: nextTS's per-key floor keeps their
// timestamps monotone no matter what phase 1 saw.
//
// The histories are recorded under real concurrency (several reader
// goroutines against a writer), so CI's -race pass over this package
// doubles as a data-race audit of the adversary seam itself.

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	. "bqs/internal/faults"
	"bqs/internal/reconfig"
	. "bqs/internal/sim"
	"bqs/internal/systems"
)

// histEntry is one operation of a recorded history. Failed write
// attempts are recorded too (ok=false): their values may partially land
// on servers, and their windows mark reads as write-concurrent.
type histEntry struct {
	start, end time.Time
	read       bool
	ok         bool   // operation completed successfully
	value      string // written value, or value a read returned
}

// corruptionLog reconstructs per-server corruption intervals from
// adversary flips.
type corruptionLog struct {
	mu    sync.Mutex
	spans map[int][]corruptionSpan
}

type corruptionSpan struct {
	from time.Time
	to   time.Time // zero while still corrupt
}

func newCorruptionLog() *corruptionLog {
	return &corruptionLog{spans: make(map[int][]corruptionSpan)}
}

// open starts a corruption span; a corrupt→corrupt re-flip (the timing
// adversary switching modes) keeps its single open span.
func (cl *corruptionLog) open(server int, at time.Time) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	spans := cl.spans[server]
	if len(spans) > 0 && spans[len(spans)-1].to.IsZero() {
		return
	}
	cl.spans[server] = append(spans, corruptionSpan{from: at})
}

// close ends the open corruption span, if any.
func (cl *corruptionLog) close(server int, at time.Time) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if spans := cl.spans[server]; len(spans) > 0 && spans[len(spans)-1].to.IsZero() {
		spans[len(spans)-1].to = at
	}
}

// spanFlipper wraps the fleet's Flipper to record conservative corruption
// spans: opened BEFORE a corrupting flip lands and closed AFTER a restore
// lands. Timestamping on the far side of each flip (as an after-the-fact
// hook would) leaves a sliver during which a server already answers
// corruptly but the log still reads clean — exactly the kind of window
// the exposure filter exists to catch.
type spanFlipper struct {
	inner Flipper
	log   *corruptionLog
}

func (sf spanFlipper) Flip(ctx context.Context, server int, b Behavior) error {
	if b != Correct {
		sf.log.open(server, time.Now())
	}
	err := sf.inner.Flip(ctx, server, b)
	switch {
	case b == Correct && err == nil:
		sf.log.close(server, time.Now())
	case b != Correct && err != nil:
		// The corruption never landed; retract the span immediately.
		sf.log.close(server, time.Now())
	}
	return err
}

// exposure counts the distinct servers corrupt at any instant within
// [start, end].
func (cl *corruptionLog) exposure(start, end time.Time) int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	n := 0
	for _, spans := range cl.spans {
		for _, sp := range spans {
			if sp.from.After(end) {
				continue
			}
			if sp.to.IsZero() || !sp.to.Before(start) {
				n++
				break
			}
		}
	}
	return n
}

// writeIndex parses the "w-<i>" values the histories use; the empty
// value (register never written) maps to -1.
func writeIndex(t *testing.T, value string) int {
	t.Helper()
	if value == "" {
		return -1
	}
	num, ok := strings.CutPrefix(value, "w-")
	if !ok {
		t.Fatalf("read returned a value no writer wrote: %q", value)
	}
	i, err := strconv.Atoi(num)
	if err != nil {
		t.Fatalf("read returned a value no writer wrote: %q", value)
	}
	return i
}

// checkHistory asserts the register semantics over a recorded history
// for every read within the fault budget b; log may be nil when the
// whole run kept a static fault set (then every read qualifies). It
// returns how many reads got the full safe-register freshness check
// (within budget AND write-free).
func checkHistory(t *testing.T, hist []histEntry, log *corruptionLog, b int) int {
	t.Helper()
	checked := 0
	for _, e := range hist {
		if !e.read {
			continue
		}
		if log != nil && log.exposure(e.start, e.end) > b {
			// Mobile-adversary window: the op saw more than b distinct
			// corrupt servers, outside the [MR98a] model. No guarantee.
			continue
		}
		// Masking is unconditional within budget: fabricated values must
		// never surface, concurrent writes or not.
		if strings.Contains(e.value, FabricatedValue) {
			t.Fatalf("fabricated value returned to a reader: %q", e.value)
		}
		// The safe-register freshness guarantee covers only write-free
		// reads: a read overlapping any write attempt may see honest votes
		// split across old and new values and return something older.
		concurrent := false
		floor := -1
		for _, w := range hist {
			if w.read {
				continue
			}
			if w.start.Before(e.end) && e.start.Before(w.end) {
				concurrent = true
				break
			}
			if w.ok && w.end.Before(e.start) {
				if i := writeIndex(t, w.value); i > floor {
					floor = i
				}
			}
		}
		if concurrent {
			continue
		}
		checked++
		if got := writeIndex(t, e.value); got < floor {
			t.Fatalf("read travelled backwards: returned w-%d, but w-%d completed before it started", got, floor)
		}
	}
	return checked
}

// newThresholdCluster builds a cluster over Threshold(n=4b+1, ℓ=3b+1).
func newThresholdCluster(t *testing.T, b int, seed int64) *Cluster {
	t.Helper()
	sys, err := systems.NewMaskingThreshold(4*b+1, b)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(sys, b, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runAdversarialHistory drives writer+readers against a b=1 masking
// fleet over Threshold(5,1) while the given adversary corrupts servers,
// and returns the completed-operation history plus the corruption log.
func runAdversarialHistory(t *testing.T, cfg AdversaryConfig) ([]histEntry, *corruptionLog) {
	t.Helper()
	c := newThresholdCluster(t, 1, 31)
	defer c.Close()

	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	log := newCorruptionLog()
	adv, err := NewAdversary(cfg, spanFlipper{c, log}, c, c.N())
	if err != nil {
		t.Fatal(err)
	}
	var advDone sync.WaitGroup
	advDone.Add(1)
	go func() {
		defer advDone.Done()
		_ = adv.Run(runCtx)
	}()

	var mu sync.Mutex
	var hist []histEntry
	record := func(e histEntry) {
		mu.Lock()
		hist = append(hist, e)
		mu.Unlock()
	}

	var ops sync.WaitGroup
	const (
		writes  = 40
		readers = 3
	)
	ops.Add(1)
	go func() {
		defer ops.Done()
		w := c.NewClient(100)
		w.MaxRetries = 4 * c.N()
		w.SuspicionTTL = 5 * time.Millisecond
		for i := 0; i < writes; i++ {
			start := time.Now()
			err := w.Write(runCtx, fmt.Sprintf("w-%d", i))
			// Liveness hiccups under corruption are not safety bugs, but a
			// failed attempt may still have landed its value on some
			// servers and its window still makes overlapping reads
			// write-concurrent — record it as a non-ok write.
			record(histEntry{start: start, end: time.Now(), ok: err == nil, value: fmt.Sprintf("w-%d", i)})
		}
	}()
	readLoop := func(id, count int) {
		cl := c.NewClient(200 + id)
		cl.MaxRetries = 4 * c.N()
		cl.SuspicionTTL = 5 * time.Millisecond
		for i := 0; i < count; i++ {
			start := time.Now()
			got, err := cl.Read(runCtx)
			if err != nil {
				if errors.Is(err, context.Canceled) {
					return
				}
				continue
			}
			record(histEntry{start: start, end: time.Now(), read: true, ok: true, value: got.Value})
		}
	}
	for r := 0; r < readers; r++ {
		ops.Add(1)
		go func(id int) {
			defer ops.Done()
			readLoop(id, writes)
		}(r)
	}
	ops.Wait()
	// Read-only tail: the writer is done, so every within-budget read here
	// is write-free and receives the full safe-register freshness check
	// (the concurrent phase above mostly exercises the masking check — its
	// reads overlap write windows).
	var tail sync.WaitGroup
	for r := 0; r < readers; r++ {
		tail.Add(1)
		go func(id int) {
			defer tail.Done()
			readLoop(100+id, writes)
		}(r)
	}
	tail.Wait()
	cancel()
	advDone.Wait()
	if adv.Ticks() == 0 {
		t.Fatal("adversary never ran")
	}
	return hist, log
}

// assertSafeHistory runs the checker and demands the run actually
// exercised it: a healthy share of reads must have received the full
// freshness check (within budget and write-free — readers outlive the
// writer by design so plenty of write-free reads exist).
func assertSafeHistory(t *testing.T, hist []histEntry, log *corruptionLog, b int) {
	t.Helper()
	reads := 0
	for _, e := range hist {
		if e.read {
			reads++
		}
	}
	checked := checkHistory(t, hist, log, b)
	if reads == 0 || checked < reads/4 {
		t.Fatalf("only %d of %d reads got the full check — the run proves too little", checked, reads)
	}
}

func TestSafetyUnderRandomFabricatingAdversary(t *testing.T) {
	hist, log := runAdversarialHistory(t, AdversaryConfig{
		Kind: AdversaryRandom, B: 1, Behavior: ByzantineFabricate,
		Interval: 2 * time.Millisecond, Seed: 1,
	})
	assertSafeHistory(t, hist, log, 1)
}

func TestSafetyUnderTargetedStaleAdversary(t *testing.T) {
	hist, log := runAdversarialHistory(t, AdversaryConfig{
		Kind: AdversaryTargeted, B: 1, Behavior: ByzantineStale,
		Interval: 2 * time.Millisecond,
	})
	assertSafeHistory(t, hist, log, 1)
}

func TestSafetyUnderTimingAdversary(t *testing.T) {
	// Timing alternates ByzantineStale and ByzantineEquivocate on its
	// own, completing the three-behavior coverage the suite promises.
	hist, log := runAdversarialHistory(t, AdversaryConfig{
		Kind: AdversaryTiming, B: 1, Interval: 2 * time.Millisecond,
	})
	assertSafeHistory(t, hist, log, 1)
}

// TestRollingResizeHistoryStaysSafe is the -race rolling-resize safety
// test: a writer and three readers run while the cluster resizes twice
// (threshold:5 → mgrid:36 → compose:5x5), with each resize triggered at
// a writer checkpoint so the drains demonstrably overlap live traffic.
// The recorded history must pass the full safe-register check — no
// fabricated values, no read travelling backwards past a completed
// write — with a nil corruption log (no adversary: every read is within
// budget, so assertSafeHistory's coverage floor bites).
func TestRollingResizeHistoryStaysSafe(t *testing.T) {
	c := newThresholdCluster(t, 1, 53)
	defer c.Close()
	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var mu sync.Mutex
	var hist []histEntry
	record := func(e histEntry) {
		mu.Lock()
		hist = append(hist, e)
		mu.Unlock()
	}

	// The writer releases one checkpoint per resize target mid-stream.
	const writes = 120
	checkpoints := []int{writes / 3, 2 * writes / 3}
	checkpoint := make(chan struct{}, len(checkpoints))
	resizeDone := make(chan error, 1)
	go func() {
		for _, spec := range []string{"mgrid:36", "compose:5x5"} {
			select {
			case <-checkpoint:
			case <-runCtx.Done():
				resizeDone <- runCtx.Err()
				return
			}
			rec, err := reconfig.ParseTarget(spec, 1)
			if err != nil {
				resizeDone <- err
				return
			}
			rctx, rcancel := context.WithTimeout(runCtx, 10*time.Second)
			_, err = c.Reconfigure(rctx, rec)
			rcancel()
			if err != nil {
				resizeDone <- fmt.Errorf("resize to %s: %w", spec, err)
				return
			}
		}
		resizeDone <- nil
	}()

	var ops sync.WaitGroup
	ops.Add(1)
	go func() {
		defer ops.Done()
		w := c.NewClient(100)
		w.MaxRetries = 64
		w.SuspicionTTL = 5 * time.Millisecond
		next := 0
		for i := 0; i < writes; i++ {
			start := time.Now()
			err := w.Write(runCtx, fmt.Sprintf("w-%d", i))
			record(histEntry{start: start, end: time.Now(), ok: err == nil, value: fmt.Sprintf("w-%d", i)})
			if next < len(checkpoints) && i == checkpoints[next] {
				checkpoint <- struct{}{}
				next++
			}
		}
	}()
	readLoop := func(id, count int) {
		cl := c.NewClient(200 + id)
		cl.MaxRetries = 64
		cl.SuspicionTTL = 5 * time.Millisecond
		for i := 0; i < count; i++ {
			start := time.Now()
			got, err := cl.Read(runCtx)
			if err != nil {
				if errors.Is(err, context.Canceled) {
					return
				}
				continue
			}
			record(histEntry{start: start, end: time.Now(), read: true, ok: true, value: got.Value})
		}
	}
	const readers = 3
	for r := 0; r < readers; r++ {
		ops.Add(1)
		go func(id int) {
			defer ops.Done()
			readLoop(id, writes)
		}(r)
	}
	ops.Wait()
	if err := <-resizeDone; err != nil {
		t.Fatal(err)
	}
	// Read-only tail in the final epoch: these reads are write-free, so
	// they all receive the full freshness check.
	var tail sync.WaitGroup
	for r := 0; r < readers; r++ {
		tail.Add(1)
		go func(id int) {
			defer tail.Done()
			readLoop(100+id, writes/2)
		}(r)
	}
	tail.Wait()

	if c.Epoch() != 2 {
		t.Fatalf("after two resizes: epoch %d, want 2", c.Epoch())
	}
	if c.N() != 25 || !strings.Contains(c.System().Name(), "∘") {
		t.Fatalf("final system %s (n=%d), want the 25-server composition", c.System().Name(), c.N())
	}
	assertSafeHistory(t, hist, nil, 1)
}

// checkHistory itself is under test here: it must actually catch both
// violation classes when fed a poisoned history.
func TestHistoryCheckerCatchesViolations(t *testing.T) {
	now := time.Now()
	at := func(ms int) time.Time { return now.Add(time.Duration(ms) * time.Millisecond) }
	okWrite := histEntry{start: at(0), end: at(10), ok: true, value: "w-0"}

	fabricated := []histEntry{okWrite, {start: at(20), end: at(30), read: true, ok: true, value: FabricatedValue}}
	backwards := []histEntry{okWrite, {start: at(20), end: at(30), read: true, ok: true, value: ""}}
	for name, hist := range map[string][]histEntry{"fabricated": fabricated, "backwards": backwards} {
		mock := &testing.T{}
		var caught bool
		func() {
			defer func() {
				caught = mock.Failed()
			}()
			// checkHistory fails via t.Fatalf → runtime.Goexit; run it on
			// its own goroutine and inspect the mock after it exits.
			done := make(chan struct{})
			go func() {
				defer close(done)
				checkHistory(mock, hist, nil, 1)
			}()
			<-done
		}()
		if !caught {
			t.Errorf("checker missed the %s violation", name)
		}
	}
}

// The exposure filter is load-bearing; pin its arithmetic.
func TestCorruptionLogExposure(t *testing.T) {
	log := newCorruptionLog()
	base := time.Now()
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	log.spans[0] = []corruptionSpan{{from: at(0), to: at(10)}}
	log.spans[1] = []corruptionSpan{{from: at(8), to: at(20)}}
	log.spans[2] = []corruptionSpan{{from: at(30)}} // still corrupt

	cases := []struct {
		s, e int
		want int
	}{
		{0, 5, 1},   // only server 0
		{9, 9, 2},   // overlap window: both 0 and 1
		{12, 25, 1}, // only server 1
		{21, 29, 0}, // gap
		{35, 40, 1}, // open span counts
	}
	for _, c := range cases {
		if got := log.exposure(at(c.s), at(c.e)); got != c.want {
			t.Errorf("exposure(%d,%d) = %d, want %d", c.s, c.e, got, c.want)
		}
	}
}
