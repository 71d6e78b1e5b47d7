package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bqs/internal/systems"
)

func newMGridCluster(t *testing.T, opts ...Option) *Cluster {
	t.Helper()
	sys, err := systems.NewMGrid(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(sys, 1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSessionKeyedConcurrent is the race-clean core of the keyed data
// plane: many sessions pipeline keyed reads and writes concurrently with
// a Byzantine fabricator inside the masking bound, and every read
// returns exactly what its own key holds — never another key's value,
// never a fabrication.
func TestSessionKeyedConcurrent(t *testing.T) {
	c := newMGridCluster(t, WithSeed(11))
	if err := c.InjectFault(ByzantineFabricate, 6); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const clients, keysPer, rounds = 8, 4, 5
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sess := c.NewClient(id).NewSession(WithSessionBatch(8))
			defer sess.Close()
			for r := 0; r < rounds; r++ {
				writes := make([]*WriteFuture, keysPer)
				for k := 0; k < keysPer; k++ {
					writes[k] = sess.WriteAsync(ctx, fmt.Sprintf("c%d/k%d", id, k), fmt.Sprintf("v%d-%d-%d", id, k, r))
				}
				for k, f := range writes {
					if err := f.Wait(); err != nil {
						t.Errorf("client %d write k%d round %d: %v", id, k, r, err)
						return
					}
				}
				reads := make([]*ReadFuture, keysPer)
				for k := 0; k < keysPer; k++ {
					reads[k] = sess.ReadAsync(ctx, fmt.Sprintf("c%d/k%d", id, k))
				}
				for k, f := range reads {
					tv, err := f.Wait()
					if err != nil {
						t.Errorf("client %d read k%d round %d: %v", id, k, r, err)
						return
					}
					if want := fmt.Sprintf("v%d-%d-%d", id, k, r); tv.Value != want {
						t.Errorf("client %d key k%d round %d: got %q want %q", id, k, r, tv.Value, want)
						return
					}
				}
			}
		}(id)
	}
	wg.Wait()
}

// TestSessionZipfLoadConvergence is the acceptance check for the keyed
// data plane's load story: with the LP-optimal strategy installed, a
// batched session workload over a HEAVILY skewed key space (zipf 1.1 —
// the hottest key absorbs a large fraction of operations) still measures
// peak per-server load within ±10% of the LP L(Q). The paper's load
// (Definition 3.8) counts quorum accesses, and quorum selection never
// looks at the key, so skew in the object space must not leak into the
// server load profile.
func TestSessionZipfLoadConvergence(t *testing.T) {
	c := newMGridCluster(t, WithSeed(3), WithOptimalStrategy())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const clients, ops, keys = 8, 300, 64
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) + 100))
			zipf := rand.NewZipf(rng, 1.1, 1, keys-1)
			sess := c.NewClient(id).NewSession(WithSessionBatch(16))
			defer sess.Close()
			for issued := 0; issued < ops; {
				n := 16
				if ops-issued < n {
					n = ops - issued
				}
				wfs := make([]*WriteFuture, 0, n)
				rfs := make([]*ReadFuture, 0, n)
				for j := 0; j < n; j++ {
					key := fmt.Sprintf("k%04d", zipf.Uint64())
					if (id+issued+j)%2 == 0 {
						wfs = append(wfs, sess.WriteAsync(ctx, key, fmt.Sprintf("c%d-%d", id, issued+j)))
					} else {
						rfs = append(rfs, sess.ReadAsync(ctx, key))
					}
				}
				issued += n
				for _, f := range wfs {
					if err := f.Wait(); err != nil {
						t.Errorf("client %d write: %v", id, err)
						return
					}
				}
				for _, f := range rfs {
					if _, err := f.Wait(); err != nil && !errors.Is(err, ErrNoCandidate) {
						t.Errorf("client %d read: %v", id, err)
						return
					}
				}
			}
		}(id)
	}
	wg.Wait()

	peak, lw := c.PeakLoad(), c.StrategyLoad()
	if math.IsNaN(lw) || lw <= 0 {
		t.Fatalf("strategy load not installed: %v", lw)
	}
	if dev := peak/lw - 1; math.Abs(dev) > 0.10 {
		t.Errorf("measured peak load %.4f is %+.1f%% from LP L(Q)=%.4f under zipf:1.1 skew (want within ±10%%)",
			peak, 100*dev, lw)
	}
}

// TestSessionBatcherCoalesces pins the batching mechanics: with every
// flusher held in its yield until 8 concurrent reads have enqueued their
// whole quorum phase, each destination group leaves as exactly one frame
// and the frames together carry every probe.
func TestSessionBatcherCoalesces(t *testing.T) {
	const reads = 8
	var (
		sess *Session
		tr   *frameLog
		want int // probes in the 8 reads' one phase
		open atomic.Bool
	)
	sess, tr = gatedSession(t, reads, func() {
		for !open.Load() {
			if queued(sess.b)+tr.items() == want {
				open.Store(true)
			}
			runtime.Gosched()
		}
	})
	defer sess.Close()
	want = reads * sess.cl.cluster.System().(*systems.Grid).MinQuorumSize()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	futures := make([]*ReadFuture, reads)
	for i := range futures {
		futures[i] = sess.ReadAsync(ctx, fmt.Sprintf("k%d", i))
	}
	for i, f := range futures {
		if _, err := f.Wait(); err != nil && !errors.Is(err, ErrNoCandidate) {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	perServer := make(map[int]int)
	for _, f := range tr.log() {
		perServer[f.server]++
	}
	for server, n := range perServer {
		if n != 1 {
			t.Errorf("server %d got %d frames, want the whole wave in one", server, n)
		}
	}
	if got := tr.items(); got != want {
		t.Errorf("frames carried %d probes, want %d", got, want)
	}
}

// TestSessionBatcherLoneProbe pins the cost of the rule to a probe that
// has no company: exactly one yield, then a frame of one.
func TestSessionBatcherLoneProbe(t *testing.T) {
	var yields atomic.Int32
	sess, tr := gatedSession(t, 8, func() { yields.Add(1) })
	defer sess.Close()
	if _, err := sess.b.Invoke(ctx, 3, Request{Op: OpRead, Key: "k"}); err != nil {
		t.Fatal(err)
	}
	if n := yields.Load(); n != 1 {
		t.Errorf("lone probe waited on %d yields, want 1", n)
	}
	if got := tr.sizes(); !slices.Equal(got, []int{1}) {
		t.Errorf("frames %v, want [1]", got)
	}
}

// TestSessionBatcherFullQueue pins the size trigger: a queue that reaches
// maxBatch leaves at once, while its flusher is still parked in the yield.
func TestSessionBatcherFullQueue(t *testing.T) {
	gate := make(chan struct{})
	sess, tr := gatedSession(t, 2, func() { <-gate })
	defer sess.Close()
	defer close(gate)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sess.b.Invoke(ctx, 3, Request{Op: OpRead, Key: "k"}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := tr.sizes(); !slices.Equal(got, []int{2}) {
		t.Errorf("frames %v, want [2]", got)
	}
}

// TestSessionBatcherCancelledWaiter pins the per-waiter deadline: a probe
// whose ctx is cancelled while queued returns ctx.Err() without waiting
// for the frame, and the frame still carries it and answers its mates.
func TestSessionBatcherCancelledWaiter(t *testing.T) {
	gate, parked := make(chan struct{}), make(chan struct{}, 1)
	sess, tr := gatedSession(t, 8, func() { parked <- struct{}{}; <-gate })
	defer sess.Close()
	cctx, cancel := context.WithCancel(ctx)
	gone := make(chan error, 1)
	go func() {
		_, err := sess.b.Invoke(cctx, 3, Request{Op: OpRead, Key: "k"})
		gone <- err
	}()
	<-parked
	type answer struct {
		resp Response
		err  error
	}
	mate := make(chan answer, 1)
	go func() {
		resp, err := sess.b.Invoke(ctx, 3, Request{Op: OpRead, Key: "k"})
		mate <- answer{resp, err}
	}()
	for queued(sess.b) < 2 {
		runtime.Gosched()
	}
	cancel()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	close(gate)
	if a := <-mate; a.err != nil || !a.resp.OK {
		t.Fatalf("frame-mate got %+v, %v", a.resp, a.err)
	}
	if got := tr.sizes(); !slices.Equal(got, []int{2}) {
		t.Errorf("frames %v, want [2]", got)
	}
}

// TestSessionBatcherCloseFlushes pins Close's drain: a probe whose waiter
// gave up while its flusher was parked still reaches its server.
func TestSessionBatcherCloseFlushes(t *testing.T) {
	gate, parked := make(chan struct{}), make(chan struct{}, 1)
	sess, tr := gatedSession(t, 8, func() { parked <- struct{}{}; <-gate })
	defer close(gate)
	cctx, cancel := context.WithCancel(ctx)
	gone := make(chan error, 1)
	go func() {
		_, err := sess.b.Invoke(cctx, 3, Request{Op: OpRead, Key: "k"})
		gone <- err
	}()
	<-parked
	cancel()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	if got := tr.sizes(); len(got) != 0 {
		t.Fatalf("frames %v before Close, want none", got)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tr.sizes(); !slices.Equal(got, []int{1}) {
		t.Errorf("frames %v after Close, want [1]", got)
	}
}

// gatedSession opens a session of the given batch size over a frameLog
// on M-Grid(4,1), with yield standing in for the batcher's one yield.
func gatedSession(t *testing.T, batch int, yield func()) (*Session, *frameLog) {
	t.Helper()
	tr := &frameLog{}
	c := newMGridCluster(t, WithSeed(5), WithTransport(func(servers []*Server) Transport {
		tr.inner = NewInMemoryTransport(servers, 1).(*memTransport)
		return tr
	}))
	sess := c.NewClient(1).NewSession(WithSessionBatch(batch))
	if !sess.Batching() {
		t.Fatal("session does not batch over a BatchTransport")
	}
	sess.b.yield = yield
	return sess, tr
}

// queued counts the probes waiting in the batcher's queues.
func queued(b *batcher) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, q := range b.queues {
		n += len(q.items)
	}
	return n
}

// frameLog wraps the in-memory transport as a BatchTransport with neither
// its grouping nor its economics hint — so a session batches per server —
// and records every frame it carries.
type frameLog struct {
	inner *memTransport

	mu     sync.Mutex
	frames []sentFrame
}

// sentFrame is one frame's destination server and size.
type sentFrame struct{ server, size int }

func (t *frameLog) Invoke(ctx context.Context, server int, req Request) (Response, error) {
	return t.inner.Invoke(ctx, server, req)
}

func (t *frameLog) InvokeBatch(ctx context.Context, batch []BatchItem) ([]Response, error) {
	t.mu.Lock()
	t.frames = append(t.frames, sentFrame{batch[0].Server, len(batch)})
	t.mu.Unlock()
	return t.inner.InvokeBatch(ctx, batch)
}

// log returns the frames sent so far, in order.
func (t *frameLog) log() []sentFrame {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.frames)
}

// sizes returns the sizes of the frames sent so far, in order.
func (t *frameLog) sizes() []int {
	var out []int
	for _, f := range t.log() {
		out = append(out, f.size)
	}
	return out
}

// items returns how many probes the frames sent so far carried.
func (t *frameLog) items() int {
	n := 0
	for _, f := range t.log() {
		n += f.size
	}
	return n
}

// TestSessionLoadAccounting verifies batched probes feed the load
// profile exactly like unbatched ones: same workload, batched and not,
// same access totals.
func TestSessionLoadAccounting(t *testing.T) {
	run := func(batch int) []float64 {
		c := newMGridCluster(t, WithSeed(9))
		ctx := context.Background()
		sess := c.NewClient(1).NewSession(WithSessionBatch(batch))
		defer sess.Close()
		for i := 0; i < 10; i++ {
			if err := sess.Write(ctx, fmt.Sprintf("k%d", i%3), "v"); err != nil {
				t.Fatal(err)
			}
		}
		return c.LoadProfile()
	}
	// Sequential session ops are deterministic for a fixed seed, so the
	// profiles must be identical probe for probe.
	batched, unbatched := run(8), run(1)
	for i := range batched {
		if batched[i] != unbatched[i] {
			t.Fatalf("load profile diverges at server %d: batched %v vs unbatched %v", i, batched[i], unbatched[i])
		}
	}
}

// TestSessionClosed pins the Close contract: idempotent, and operations
// after Close fail with ErrSessionClosed without touching the cluster.
func TestSessionClosed(t *testing.T) {
	c := newMGridCluster(t, WithSeed(1))
	sess := c.NewClient(1).NewSession()
	ctx := context.Background()
	if err := sess.Write(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}
	if _, err := sess.ReadAsync(ctx, "k").Wait(); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("read after Close: %v, want ErrSessionClosed", err)
	}
	if err := sess.WriteAsync(ctx, "k", "v").Wait(); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("write after Close: %v, want ErrSessionClosed", err)
	}
}

// TestKeyIsolation pins per-key register independence: writes land on
// their own key's register and timestamps advance per key.
func TestKeyIsolation(t *testing.T) {
	c := newMGridCluster(t, WithSeed(2))
	ctx := context.Background()
	cl := c.NewClient(1)
	if err := cl.WriteKey(ctx, "a", "va"); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteKey(ctx, "b", "vb"); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteKey(ctx, "a", "va2"); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadKey(ctx, "a")
	if err != nil || got.Value != "va2" {
		t.Fatalf("read a: %+v, %v", got, err)
	}
	got, err = cl.ReadKey(ctx, "b")
	if err != nil || got.Value != "vb" {
		t.Fatalf("read b: %+v, %v", got, err)
	}
	// The DefaultKey register is untouched by keyed traffic.
	got, err = cl.Read(ctx)
	if err != nil || got.Value != "" {
		t.Fatalf("default register should be empty: %+v, %v", got, err)
	}
	// Per-key timestamps are independent histories: the second write to
	// "a" advanced only "a"'s clock.
	for i := 0; i < c.N(); i++ {
		if tv := c.Server(i).SnapshotKey("b"); tv.Value == "vb" && tv.TS.Seq != 1 {
			t.Fatalf("key b's timestamp advanced with key a's writes: %+v", tv)
		}
	}
}

// TestNextTSConcurrentWritersDistinct pins the per-key sequence floor:
// concurrent writes by ONE client to ONE key must mint strictly distinct
// timestamps even when both observed the same quorum maximum, or two
// different values could collect votes under one (Seq, Writer) identity.
func TestNextTSConcurrentWritersDistinct(t *testing.T) {
	c := newMGridCluster(t, WithSeed(4))
	cl := c.NewClient(1)
	const writers = 64
	var wg sync.WaitGroup
	out := make([]Timestamp, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = cl.nextTS("hot", Timestamp{Seq: 17, Writer: 9}) // all observe the same max
		}(i)
	}
	wg.Wait()
	seen := make(map[Timestamp]bool, writers)
	for _, ts := range out {
		if seen[ts] {
			t.Fatalf("duplicate timestamp %+v minted for concurrent writes", ts)
		}
		seen[ts] = true
		if ts.Seq <= 17 {
			t.Fatalf("timestamp %+v not past the observed maximum", ts)
		}
	}
}
