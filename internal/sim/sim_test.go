package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"bqs/internal/core"
	"bqs/internal/systems"
)

// ctx is the no-deadline context the non-cancellation tests share.
var ctx = context.Background()

// newThresholdCluster builds a cluster over Threshold(n=4b+1, ℓ=3b+1).
func newThresholdCluster(t *testing.T, b int, seed int64, opts ...Option) *Cluster {
	t.Helper()
	sys, err := systems.NewMaskingThreshold(4*b+1, b)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(sys, b, append([]Option{WithSeed(seed)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterValidation(t *testing.T) {
	sys, _ := systems.NewMaskingThreshold(9, 2)
	if _, err := NewCluster(sys, -1); err == nil {
		t.Error("negative b should fail")
	}
	if _, err := NewCluster(sys, 3); err == nil {
		t.Error("b beyond the system's masking bound should fail")
	}
	c, err := NewCluster(sys, 2)
	if err != nil || c.N() != 9 || c.B() != 2 {
		t.Fatalf("cluster = %+v, err %v", c, err)
	}
	if err := c.InjectFault(Crashed, 99); err == nil {
		t.Error("out-of-range fault injection should fail")
	}
}

func TestWriteReadRoundTripNoFaults(t *testing.T) {
	c := newThresholdCluster(t, 2, 7)
	w := c.NewClient(1)
	r := c.NewClient(2)
	if err := w.Write(ctx, "hello"); err != nil {
		t.Fatal(err)
	}
	got, err := r.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != "hello" {
		t.Fatalf("read %q, want hello", got.Value)
	}
	// Overwrite and read again.
	if err := w.Write(ctx, "world"); err != nil {
		t.Fatal(err)
	}
	got, err = r.Read(ctx)
	if err != nil || got.Value != "world" {
		t.Fatalf("read %q (%v), want world", got.Value, err)
	}
}

func TestTimestampOrdering(t *testing.T) {
	a := Timestamp{Seq: 1, Writer: 2}
	b := Timestamp{Seq: 1, Writer: 3}
	c := Timestamp{Seq: 2, Writer: 0}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Fatal("timestamp ordering broken")
	}
}

func TestSurvivesCrashesUpToResilience(t *testing.T) {
	b := 2
	c := newThresholdCluster(t, b, 11)
	// Threshold(9, 7): MT = 3, f = 2 crashes tolerated.
	if err := c.InjectFault(Crashed, 0, 4); err != nil {
		t.Fatal(err)
	}
	w := c.NewClient(1)
	if err := w.Write(ctx, "alive"); err != nil {
		t.Fatal(err)
	}
	got, err := c.NewClient(2).Read(ctx)
	if err != nil || got.Value != "alive" {
		t.Fatalf("read %q (%v), want alive", got.Value, err)
	}
	crashed, byz := c.FaultCounts()
	if crashed != 2 || byz != 0 {
		t.Fatalf("fault counts = (%d,%d)", crashed, byz)
	}
}

func TestFailsPastResilience(t *testing.T) {
	b := 2
	c := newThresholdCluster(t, b, 13)
	// f+1 = 3 crashes: no quorum of 7 among 6 alive.
	if err := c.InjectFault(Crashed, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	w := c.NewClient(1)
	err := w.Write(ctx, "doomed")
	if err == nil {
		t.Fatal("write should fail past resilience")
	}
	if !errors.Is(err, core.ErrNoLiveQuorum) && !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v", err)
	}
}

func TestMasksByzantineFabrication(t *testing.T) {
	b := 2
	c := newThresholdCluster(t, b, 17)
	if err := c.InjectFault(ByzantineFabricate, 3, 6); err != nil { // exactly b
		t.Fatal(err)
	}
	w := c.NewClient(1)
	if err := w.Write(ctx, "truth"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		got, err := c.NewClient(100 + i).Read(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != "truth" {
			t.Fatalf("read %q, want truth (fabrication leaked)", got.Value)
		}
	}
}

func TestMasksStaleReplay(t *testing.T) {
	b := 2
	c := newThresholdCluster(t, b, 19)
	w := c.NewClient(1)
	if err := w.Write(ctx, "v1"); err != nil {
		t.Fatal(err)
	}
	// Servers 0,1 now replay v1 forever.
	if err := c.InjectFault(ByzantineStale, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(ctx, "v2"); err != nil {
		t.Fatal(err)
	}
	got, err := c.NewClient(2).Read(ctx)
	if err != nil || got.Value != "v2" {
		t.Fatalf("read %q (%v), want v2", got.Value, err)
	}
}

// TestStaleReplaysWhatItHeldAtTheFlip: a ByzantineStale server replays
// its registers as they stood when it turned stale — v2 here, not v1, the
// oldest value it ever stored — and the masking read still returns v3,
// written after the flip. The stale server is one that stored both v1
// and v2.
func TestStaleReplaysWhatItHeldAtTheFlip(t *testing.T) {
	const b = 2
	c := newThresholdCluster(t, b, 29)
	w := c.NewClient(1)
	held := make([][]string, c.N())
	for _, v := range []string{"v1", "v2"} {
		if err := w.WriteKey(ctx, "k", v); err != nil {
			t.Fatal(err)
		}
		for i := range held {
			held[i] = append(held[i], c.Server(i).SnapshotKey("k").Value)
		}
	}
	stale := slices.IndexFunc(held, func(h []string) bool { return h[0] == "v1" && h[1] == "v2" })
	if stale < 0 {
		t.Fatal("no server stored both v1 and v2")
	}
	if err := c.InjectFault(ByzantineStale, stale); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteKey(ctx, "k", "v3"); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Server(stale).HandleRead(2, "k"); !ok || got.Value != "v2" {
		t.Fatalf("stale server %d replays %q (ok=%v), want v2, what it held at the flip", stale, got.Value, ok)
	}
	for i := range 20 {
		if got, err := c.NewClient(100+i).ReadKey(ctx, "k"); err != nil || got.Value != "v3" {
			t.Fatalf("read %q (%v), want v3", got.Value, err)
		}
	}
}

// TestStaleFlipNeverServesZero flips one server between ByzantineStale
// and Correct while a reader probes a key written before the first flip.
// Whichever mode a read meets, the answer is that write — from the stale
// copy or from the store — and never the zero register, which is what a
// read served when it saw the server stale, lost a flip to Correct, and
// then looked the key up in the stale copy the flip had dropped.
func TestStaleFlipNeverServesZero(t *testing.T) {
	s := NewServer(0)
	want := TaggedValue{Value: "v", TS: Timestamp{Seq: 1, Writer: 1}}
	if !s.HandleWrite("k", want) {
		t.Fatal("write refused")
	}
	stop := make(chan struct{})
	var flips sync.WaitGroup
	defer func() {
		close(stop)
		flips.Wait()
	}()
	flips.Add(1)
	go func() {
		defer flips.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.SetBehavior(ByzantineStale)
			s.SetBehavior(Correct)
		}
	}()
	for range 20000 {
		if got, ok := s.HandleRead(1, "k"); !ok || got != want {
			t.Fatalf("read served %+v (ok=%v) across a stale/correct flip, want %+v", got, ok, want)
		}
	}
}

// TestReadTimestampsReturnsTimestampOnly checks that OpReadTimestamps
// answers with the timestamp alone, for every behavior that answers: no
// value, and the TS an OpRead would report. Each behavior gets two
// servers built alike, one per op, so an equivocator's alternation is at
// the same step for both. The stale servers turn stale between two
// writes, so they report the first.
func TestReadTimestampsReturnsTimestampOnly(t *testing.T) {
	build := func(b Behavior) *Server {
		s := NewServer(0)
		s.HandleWrite("k", TaggedValue{Value: "v1", TS: Timestamp{Seq: 1, Writer: 1}})
		s.SetBehavior(b)
		s.HandleWrite("k", TaggedValue{Value: "v2", TS: Timestamp{Seq: 2, Writer: 2}})
		return s
	}
	for _, b := range []Behavior{Correct, ByzantineStale, ByzantineFabricate, ByzantineEquivocate} {
		tsServer, readServer := build(b), build(b)
		for i := range 3 {
			got, err := tsServer.HandleRequest(Request{Op: OpReadTimestamps, Key: "k", ReaderID: 1})
			if err != nil {
				t.Fatal(err)
			}
			want, err := readServer.HandleRequest(Request{Op: OpRead, Key: "k", ReaderID: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !got.OK || got.Value.Value != "" || got.Value.TS != want.Value.TS {
				t.Errorf("%v probe %d: OpReadTimestamps answered %+v, want OK, no value, TS %+v (OpRead answered %+v)", b, i, got, want.Value.TS, want)
			}
		}
	}
}

func TestMasksEquivocation(t *testing.T) {
	b := 2
	c := newThresholdCluster(t, b, 23)
	if err := c.InjectFault(ByzantineEquivocate, 2, 7); err != nil {
		t.Fatal(err)
	}
	w := c.NewClient(1)
	if err := w.Write(ctx, "stable"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got, err := c.NewClient(50 + i).Read(ctx)
		if err != nil || got.Value != "stable" {
			t.Fatalf("read %q (%v), want stable", got.Value, err)
		}
	}
}

func TestHybridFaults(t *testing.T) {
	// The paper's hybrid model: b Byzantine plus extra crashes, up to f.
	// Threshold(13, 10) with b=3: MT = 4, f = 3. Inject 2 Byzantine + 1
	// crash (within both budgets... b counts Byzantine only; crashes can
	// add up to f total failures for liveness).
	sys, err := systems.NewMaskingThreshold(13, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(sys, 3, WithSeed(29))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InjectFault(ByzantineFabricate, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.InjectFault(Crashed, 9); err != nil {
		t.Fatal(err)
	}
	w := c.NewClient(1)
	if err := w.Write(ctx, "hybrid"); err != nil {
		t.Fatal(err)
	}
	got, err := c.NewClient(2).Read(ctx)
	if err != nil || got.Value != "hybrid" {
		t.Fatalf("read %q (%v), want hybrid", got.Value, err)
	}
}

func TestViolationPast2bPlus1(t *testing.T) {
	// Demonstrates why Definition 3.5 needs 2b+1: with 2b+1 colluding
	// fabricators, every quorum of the 3b+1-of-4b+1 threshold contains at
	// least b+1 of them, so their fake pair gets vouched and wins.
	b := 2
	c := newThresholdCluster(t, b, 31)
	w := c.NewClient(1)
	if err := w.Write(ctx, "truth"); err != nil {
		t.Fatal(err)
	}
	if err := c.InjectFault(ByzantineFabricate, 0, 1, 2, 3, 4); err != nil { // 2b+1 = 5
		t.Fatal(err)
	}
	got, err := c.NewClient(2).Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != FabricatedValue {
		t.Fatalf("read %q — expected the fabricated value to win once faults exceed b", got.Value)
	}
}

// TestMaskingProtocolNeedsBiggerIntersections is the contrast that shows
// why Definition 3.5 asks for 2b+1: on a threshold system whose quorums
// meet in only b+1 servers, b stale servers in the intersection of a
// write quorum and a read quorum leave the newer value one honest vote,
// and the masking read believes the older one. NewCluster refuses to
// claim b on such a system, so the test stores the two writes on the
// servers directly and asks the masking rule what the read quorum's
// replies make it believe.
func TestMaskingProtocolNeedsBiggerIntersections(t *testing.T) {
	const b, n = 3, 10
	sys, err := systems.NewThreshold(n, (n+b+2)/2) // ⌈(n+b+1)/2⌉ = 7
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.MinIntersection(); got != b+1 {
		t.Fatalf("IS = %d, want b+1 = %d", got, b+1)
	}
	if _, err := NewCluster(sys, b); err == nil {
		t.Fatalf("NewCluster accepted b=%d over IS = b+1", b)
	}
	c, err := NewCluster(sys, 0, WithSeed(89))
	if err != nil {
		t.Fatal(err)
	}
	put := func(tv TaggedValue, members ...int) {
		for _, i := range members {
			if _, err := c.Server(i).HandleRequest(Request{Op: OpWrite, Key: DefaultKey, Value: tv}); err != nil {
				t.Fatal(err)
			}
		}
	}
	v1 := TaggedValue{Value: "v1", TS: Timestamp{Seq: 1, Writer: 1}}
	v2 := TaggedValue{Value: "v2", TS: Timestamp{Seq: 2, Writer: 1}}
	put(v1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	// The write quorum {0..6} and the read quorum {3..9} meet in
	// {3, 4, 5, 6}; b of those replay v1 from here on.
	if err := c.InjectFault(ByzantineStale, 3, 4, 5); err != nil {
		t.Fatal(err)
	}
	put(v2, 0, 1, 2, 3, 4, 5, 6)
	var replies []Response
	for i := 3; i < n; i++ {
		resp, err := c.Server(i).HandleRequest(Request{Op: OpRead, Key: DefaultKey, ReaderID: 2})
		if err != nil {
			t.Fatal(err)
		}
		replies = append(replies, resp)
	}
	if got, ok := (masking{b}).value(replies); !ok || got != v1 {
		t.Fatalf("masking read over IS = b+1 believed %+v (%v), want the stale %+v", got, ok, v1)
	}
}

// TestWritersTakeTurns alternates two writers. Each write's timestamp
// phase must see the other writer's last write — it sits at ≥ b+1
// correct members of any quorum, so the (b+1)-th largest reported
// timestamp is at least its — so the sequence numbers run 1, 2, 3, …
// and every read returns the latest write. TestLoopbackWriteTimestamps
// checks the same over TCP.
func TestWritersTakeTurns(t *testing.T) {
	const b = 2
	sys, err := systems.NewMaskingThreshold(9, b)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(sys, b, WithSeed(83))
	if err != nil {
		t.Fatal(err)
	}
	writers := []*Client{c.NewClient(1), c.NewClient(2)}
	r := c.NewClient(3)
	for i := range 6 {
		w := i % 2
		value := fmt.Sprintf("turn-%d", i)
		if err := writers[w].Write(ctx, value); err != nil {
			t.Fatal(err)
		}
		got, err := r.Read(ctx)
		want := TaggedValue{Value: value, TS: Timestamp{Seq: int64(i + 1), Writer: w + 1}}
		if err != nil || got != want {
			t.Fatalf("after turn %d read %+v (%v), want %+v", i, got, err, want)
		}
	}
}

func TestMultipleWritersLastWins(t *testing.T) {
	c := newThresholdCluster(t, 1, 37)
	w1 := c.NewClient(1)
	w2 := c.NewClient(2)
	for i := 0; i < 5; i++ {
		if err := w1.Write(ctx, fmt.Sprintf("w1-%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := w2.Write(ctx, fmt.Sprintf("w2-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.NewClient(3).Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != "w2-4" {
		t.Fatalf("read %q, want w2-4 (the last completed write)", got.Value)
	}
	if got.TS.Writer != 2 {
		t.Fatalf("winning writer = %d, want 2", got.TS.Writer)
	}
}

func TestRegisterOverMGrid(t *testing.T) {
	sys, err := systems.NewMGrid(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(sys, 3, WithSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	// 3 Byzantine servers anywhere.
	if err := c.InjectFault(ByzantineFabricate, 5, 17, 33); err != nil {
		t.Fatal(err)
	}
	w := c.NewClient(1)
	if err := w.Write(ctx, "grid-value"); err != nil {
		t.Fatal(err)
	}
	got, err := c.NewClient(2).Read(ctx)
	if err != nil || got.Value != "grid-value" {
		t.Fatalf("read %q (%v), want grid-value", got.Value, err)
	}
}

func TestRegisterOverMPath(t *testing.T) {
	sys, err := systems.NewMPath(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(sys, 4, WithSeed(43))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InjectFault(ByzantineFabricate, 10, 40); err != nil {
		t.Fatal(err)
	}
	if err := c.InjectFault(Crashed, 60, 61); err != nil {
		t.Fatal(err)
	}
	w := c.NewClient(1)
	if err := w.Write(ctx, "path-value"); err != nil {
		t.Fatal(err)
	}
	got, err := c.NewClient(2).Read(ctx)
	if err != nil || got.Value != "path-value" {
		t.Fatalf("read %q (%v), want path-value", got.Value, err)
	}
}

func TestRandomizedSafetyWithinB(t *testing.T) {
	// Property: across random fault placements with ≤ b Byzantine and ≤
	// f − b extra crashes, a read after a write returns exactly the
	// written value.
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		b := 1 + rng.Intn(3)
		sys, err := systems.NewMaskingThreshold(4*b+1+2*rng.Intn(3), b)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCluster(sys, b, WithSeed(rng.Int63()))
		if err != nil {
			t.Fatal(err)
		}
		n := c.N()
		perm := rng.Perm(n)
		byz := perm[:b]
		behaviors := []Behavior{ByzantineFabricate, ByzantineStale, ByzantineEquivocate}
		for _, id := range byz {
			if err := c.InjectFault(behaviors[rng.Intn(len(behaviors))], id); err != nil {
				t.Fatal(err)
			}
		}
		extraCrashes := core.Resilience(sys) - b
		if extraCrashes > 0 {
			crash := perm[b : b+1] // one extra crash keeps liveness comfortable
			if err := c.InjectFault(Crashed, crash...); err != nil {
				t.Fatal(err)
			}
		}
		w := c.NewClient(1)
		want := fmt.Sprintf("payload-%d", trial)
		if err := w.Write(ctx, want); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		got, err := c.NewClient(2).Read(ctx)
		if err != nil {
			t.Fatalf("trial %d: read: %v", trial, err)
		}
		if got.Value != want {
			t.Fatalf("trial %d: read %q, want %q", trial, got.Value, want)
		}
	}
}

func TestBehaviorString(t *testing.T) {
	for _, b := range []Behavior{Correct, Crashed, ByzantineFabricate, ByzantineStale, ByzantineEquivocate, Behavior(99)} {
		if b.String() == "" {
			t.Errorf("empty string for %d", int(b))
		}
	}
	if Correct.IsByzantine() || Crashed.IsByzantine() {
		t.Error("correct/crashed misclassified as Byzantine")
	}
	if !ByzantineFabricate.IsByzantine() {
		t.Error("fabricate should be Byzantine")
	}
}

func TestLossyNetworkStillSafe(t *testing.T) {
	// With a mildly lossy network, clients suspect droppers and retry;
	// operations must stay correct (dropped responses look like crashes).
	c := newThresholdCluster(t, 2, 59, WithDropRate(0.03))
	if err := c.InjectFault(ByzantineFabricate, 3); err != nil {
		t.Fatal(err)
	}
	w := c.NewClient(1)
	w.MaxRetries = 64
	r := c.NewClient(2)
	r.MaxRetries = 64
	for i := 0; i < 10; i++ {
		want := fmt.Sprintf("lossy-%d", i)
		if err := w.Write(ctx, want); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		got, err := r.Read(ctx)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got.Value != want {
			t.Fatalf("read %q, want %q", got.Value, want)
		}
	}
}

func TestFullyLossyNetworkFails(t *testing.T) {
	c := newThresholdCluster(t, 1, 61, WithDropRate(1.0))
	w := c.NewClient(1)
	if err := w.Write(ctx, "void"); err == nil {
		t.Fatal("write should fail on a dead network")
	}
}
