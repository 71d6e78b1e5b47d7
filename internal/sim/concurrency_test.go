package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bqs/internal/obs"
	"bqs/internal/store"
	"bqs/internal/systems"
)

// TestConcurrentClientsStress drives ≥ 64 concurrent clients of mixed
// reads and writes against a cluster with exactly b Byzantine fabricators
// and checks the masking guarantee holds under contention: no read ever
// surfaces a fabricated value. Run with -race; the engine must be clean.
func TestConcurrentClientsStress(t *testing.T) {
	const (
		clients = 64
		ops     = 24
		b       = 3
	)
	sys, err := systems.NewMaskingThreshold(4*b+1, b)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(sys, b, WithSeed(101))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InjectFault(ByzantineFabricate, 0, 5, 9); err != nil { // exactly b
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var reads, writes, noCandidate atomic.Int64
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := c.NewClient(id)
			for op := 0; op < ops; op++ {
				if (id+op)%2 == 0 {
					if err := cl.Write(ctx, fmt.Sprintf("c%d-op%d", id, op)); err != nil {
						t.Errorf("client %d write %d: %v", id, op, err)
						return
					}
					writes.Add(1)
					continue
				}
				got, err := cl.Read(ctx)
				switch {
				case errors.Is(err, ErrNoCandidate):
					// Legitimate under concurrency: a read overlapping a
					// write in progress may find no value vouched b+1 times.
					noCandidate.Add(1)
				case err != nil:
					t.Errorf("client %d read %d: %v", id, op, err)
					return
				case strings.HasPrefix(got.Value, FabricatedValue):
					t.Errorf("client %d read fabricated value %q with only b=%d fabricators", id, got.Value, b)
					return
				case got.Value != "" && !strings.HasPrefix(got.Value, "c"):
					t.Errorf("client %d read unknown value %q", id, got.Value)
					return
				default:
					reads.Add(1)
				}
			}
		}(id)
	}
	wg.Wait()
	if reads.Load() == 0 || writes.Load() == 0 {
		t.Fatalf("degenerate workload: %d reads, %d writes", reads.Load(), writes.Load())
	}
	t.Logf("stress: %d reads, %d writes, %d no-candidate retries", reads.Load(), writes.Load(), noCandidate.Load())
}

// TestCanceledContextAborts checks that an already-canceled context makes
// Read and Write fail immediately with context.Canceled.
func TestCanceledContextAborts(t *testing.T) {
	c, err := NewCluster(mustThreshold(t, 2), 2, WithSeed(107))
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cl := c.NewClient(1)
	if _, err := cl.Read(canceled); !errors.Is(err, context.Canceled) {
		t.Errorf("read err = %v, want context.Canceled", err)
	}
	if err := cl.Write(canceled, "never"); !errors.Is(err, context.Canceled) {
		t.Errorf("write err = %v, want context.Canceled", err)
	}
}

// countingStore is a Mem that tallies the Gets and Applys that reach it.
type countingStore struct {
	*store.Mem
	gets, applies *atomic.Int64
}

func (s countingStore) Get(key string) (store.Record, bool) {
	s.gets.Add(1)
	return s.Mem.Get(key)
}

func (s countingStore) Apply(rec store.Record) error {
	s.applies.Add(1)
	return s.Mem.Apply(rec)
}

// TestDoneContextReachesNoReplica: the in-memory phase checks its context
// before it calls a single member, with or without a latency model, so a
// phase, or a whole operation, started under a canceled context or an
// expired deadline fails with the context's error and no replica's store
// sees a Get or an Apply.
func TestDoneContextReachesNoReplica(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	for _, latency := range []bool{false, true} {
		var gets, applies atomic.Int64
		opts := []Option{WithStores(func(int) (store.Store, error) {
			return countingStore{Mem: store.NewMem(), gets: &gets, applies: &applies}, nil
		})}
		if latency {
			opts = append(opts, WithLatency(20*time.Microsecond, 40*time.Microsecond))
		}
		c, err := NewCluster(mustThreshold(t, 2), 2, opts...)
		if err != nil {
			t.Fatal(err)
		}
		cl := c.NewClient(1)
		members := []int{0, 1, 2, 3, 4, 5, 6}
		out := make([]Response, len(members))
		for _, done := range []context.Context{canceled, expired} {
			want := done.Err()
			for _, op := range []Op{OpReadTimestamps, OpRead, OpWrite} {
				req := Request{Op: op, Key: "k", Value: TaggedValue{Value: "v", TS: Timestamp{Seq: 1, Writer: 1}}}
				if err := c.probeQuorum(done, 1, members, req, nil, out); !errors.Is(err, want) {
					t.Errorf("latency=%v: %v phase under %v: err = %v", latency, op, want, err)
				}
			}
			if _, err := cl.ReadKey(done, "k"); !errors.Is(err, want) {
				t.Errorf("latency=%v: read under %v: err = %v", latency, want, err)
			}
			if err := cl.WriteKey(done, "k", "v"); !errors.Is(err, want) {
				t.Errorf("latency=%v: write under %v: err = %v", latency, want, err)
			}
		}
		c.Close()
		if gets.Load() != 0 || applies.Load() != 0 {
			t.Errorf("latency=%v: done contexts reached the stores: %d Gets, %d Applys",
				latency, gets.Load(), applies.Load())
		}
	}
}

// TestDeadlineAbortsSlowProbes models a slow fleet (50ms round trips) and
// checks that a 5ms deadline aborts the in-flight probes promptly with
// context.DeadlineExceeded instead of sleeping out the latency.
func TestDeadlineAbortsSlowProbes(t *testing.T) {
	c, err := NewCluster(mustThreshold(t, 2), 2,
		WithSeed(109), WithLatency(50*time.Millisecond, 0))
	if err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(1)
	start := time.Now()
	deadlined, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := cl.Read(deadlined); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("read err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("read took %v; deadline should abort well before the 50ms latency", elapsed)
	}
}

// TestLoadProfileTracksPaperLoad is the acceptance experiment: balanced
// concurrent traffic against a fault-free M-Grid(7,3) must produce a
// busiest-server access frequency within 15% of the construction's
// analytic load L(Q) = c/n (Propositions 3.9 and 5.2).
func TestLoadProfileTracksPaperLoad(t *testing.T) {
	mg, err := systems.NewMGrid(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(mg, 3, WithSeed(113))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for id := 0; id < 32; id++ {
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

	want := mg.Load() // 24/49 ≈ 0.49, optimal per Proposition 5.2
	got := c.PeakLoad()
	if got < 0.85*want || got > 1.15*want {
		t.Fatalf("peak empirical load %.4f outside ±15%% of analytic L(Q) = %.4f", got, want)
	}
	profile := c.LoadProfile()
	if len(profile) != mg.UniverseSize() {
		t.Fatalf("profile has %d entries, want %d", len(profile), mg.UniverseSize())
	}
	sum := 0.0
	for _, f := range profile {
		sum += f
	}
	// Each quorum touches c(Q) = 24 of 49 servers, so fractions sum to ≈ c.
	if cQ := float64(mg.MinQuorumSize()); sum < 0.95*cQ || sum > 1.05*cQ {
		t.Fatalf("profile sums to %.2f, want ≈ c(Q) = %.0f", sum, cQ)
	}
	t.Logf("peak load %.4f vs analytic %.4f (%+.1f%%)", got, want, 100*(got/want-1))
}

// TestResetLoadProfile checks the counters can be zeroed (e.g. to discard
// a warm-up phase).
func TestResetLoadProfile(t *testing.T) {
	c, err := NewCluster(mustThreshold(t, 1), 1, WithSeed(127))
	if err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(1)
	if err := cl.Write(ctx, "warm"); err != nil {
		t.Fatal(err)
	}
	if c.PeakLoad() == 0 {
		t.Fatal("expected non-zero load after a write")
	}
	c.ResetLoadProfile()
	if c.PeakLoad() != 0 {
		t.Fatal("expected zero load after reset")
	}
}

// TestDeterministicModeReproducible runs the same seeded single-client
// workload twice over a lossy network and demands identical per-server
// access profiles: with no option set, a phase over the built-in
// transport rolls its members' loss dice on the caller's goroutine in a
// fixed order — member order, or arrival order under a latency model,
// where goroutines per member would roll them in whatever order they woke.
func TestDeterministicModeReproducible(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"no latency", nil},
		{"latency", []Option{WithLatency(20*time.Microsecond, 60*time.Microsecond)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() []float64 {
				c, err := NewCluster(mustThreshold(t, 2), 2,
					append([]Option{WithSeed(131), WithDropRate(0.05)}, tc.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				cl := c.NewClient(1)
				cl.MaxRetries = 64
				for i := 0; i < 20; i++ {
					if err := cl.Write(ctx, fmt.Sprintf("d%d", i)); err != nil {
						t.Fatal(err)
					}
					if _, err := cl.Read(ctx); err != nil {
						t.Fatal(err)
					}
				}
				return c.LoadProfile()
			}
			a, b := run(), run()
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("server %d: %.6f vs %.6f — seeded runs diverged", i, a[i], b[i])
				}
			}
		})
	}
}

// countingTransport wraps another Transport and tallies invocations, the
// middleware pattern WithTransport is designed for.
type countingTransport struct {
	inner Transport
	calls atomic.Int64
}

func (ct *countingTransport) Invoke(ctx context.Context, server int, req Request) (Response, error) {
	ct.calls.Add(1)
	return ct.inner.Invoke(ctx, server, req)
}

func TestWithTransportMiddleware(t *testing.T) {
	var counter *countingTransport
	c, err := NewCluster(mustThreshold(t, 2), 2,
		WithTransport(func(servers []*Server) Transport {
			counter = &countingTransport{inner: NewInMemoryTransport(servers, 7)}
			return counter
		}))
	if err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(1)
	if err := cl.Write(ctx, "traced"); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Read(ctx)
	if err != nil || got.Value != "traced" {
		t.Fatalf("read %q (%v), want traced", got.Value, err)
	}
	// Write = timestamp quorum + store quorum, read = one quorum: with
	// quorums of 7 on Threshold(9,7), that is 21 probes.
	if calls := counter.calls.Load(); calls < 21 {
		t.Fatalf("middleware saw %d calls, want ≥ 21", calls)
	}
}

func TestOptionValidation(t *testing.T) {
	sys := mustThreshold(t, 2)
	if _, err := NewCluster(sys, 2, WithDropRate(-0.1)); err == nil {
		t.Error("negative drop rate should fail")
	}
	if _, err := NewCluster(sys, 2, WithDropRate(1.5)); err == nil {
		t.Error("drop rate > 1 should fail")
	}
	if _, err := NewCluster(sys, 2, WithLatency(-time.Second, 0)); err == nil {
		t.Error("negative latency should fail")
	}
	if _, err := NewCluster(sys, 2, WithTransport(nil)); err == nil {
		t.Error("nil transport factory should fail")
	}
}

func TestOpString(t *testing.T) {
	for _, op := range []Op{OpReadTimestamps, OpRead, OpWrite, Op(42)} {
		if op.String() == "" {
			t.Errorf("empty name for op %d", int(op))
		}
	}
}

// TestLoadCountersSumAcrossClients runs concurrent operations from ten
// clients, ids 0–9, so two pairs of them share a load stripe, on
// Threshold(13,3), whose quorums all have ten members. Summed over the
// stripes, the per-server accesses come to exactly ten per phase and the
// scraped series agree with them; ResetLoadProfile zeroes every stripe;
// and bqs_server_accesses_total never goes down across a Reconfigure.
func TestLoadCountersSumAcrossClients(t *testing.T) {
	const b, clients, ops = 3, 10, 40
	reg := obs.NewRegistry()
	c, err := NewCluster(mustThreshold(t, b), b, WithSeed(3), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		t.Helper()
		var wg sync.WaitGroup
		for id := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := c.NewClient(id)
				for i := range ops {
					// Each client writes keys of its own, so no read
					// meets a concurrent write and every read is vouched.
					key := fmt.Sprintf("c%d-k%d", id, i%4)
					if err := cl.WriteKey(ctx, key, fmt.Sprint(id, i)); err != nil {
						t.Error(err)
						return
					}
					if _, err := cl.ReadKey(ctx, key); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	scraped := func() []int64 {
		out := make([]int64, c.N())
		for i := range out {
			v, _ := reg.Value("bqs_server_accesses_total", "server", fmt.Sprint(i))
			out[i] = int64(v)
		}
		return out
	}
	run()
	load := &c.cur.Load().load
	var sum int64
	for i := range c.N() {
		sum += load.accesses(i)
	}
	if phases := c.Phases(); phases != 3*clients*ops || sum != 10*phases {
		t.Fatalf("%d phases charging %d accesses, want %d phases of 10", phases, sum, 3*clients*ops)
	}
	for s := range loadStripes {
		if load.c[s*load.stride].Load() == 0 {
			t.Errorf("stripe %d charged no phase", s)
		}
	}
	if v, _ := reg.Value("bqs_cluster_phases_total"); int64(v) != c.Phases() {
		t.Errorf("bqs_cluster_phases_total = %v, want %d", v, c.Phases())
	}
	before := scraped()
	var total int64
	for _, v := range before {
		total += v
	}
	if total != sum {
		t.Errorf("bqs_server_accesses_total sums to %d, want %d", total, sum)
	}

	if _, err := c.Reconfigure(ctx, mustTarget(t, "threshold:17", b)); err != nil {
		t.Fatal(err)
	}
	run()
	for i, v := range scraped() {
		if i < len(before) && v < before[i] {
			t.Errorf("server %d: bqs_server_accesses_total fell from %d to %d across a reconfiguration", i, before[i], v)
		}
	}

	c.ResetLoadProfile()
	load = &c.cur.Load().load
	for k := range load.c {
		if v := load.c[k].Load(); v != 0 {
			t.Fatalf("counter %d of the striped load is %d after ResetLoadProfile", k, v)
		}
	}
	if c.Phases() != 0 || c.PeakLoad() != 0 {
		t.Fatalf("after ResetLoadProfile: %d phases, peak load %v", c.Phases(), c.PeakLoad())
	}
}

// mustThreshold returns the 4b+1-server masking threshold used throughout.
func mustThreshold(t *testing.T, b int) *systems.Threshold {
	t.Helper()
	sys, err := systems.NewMaskingThreshold(4*b+1, b)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}
