package sim

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bqs/internal/obs"
	"bqs/internal/store"
	"bqs/internal/systems"
)

// phaseBarrier holds every arrival until n have arrived — one quorum
// phase's worth — then releases them together and re-arms for the next
// phase. A serial probe loop never gets a second arrival in, so it waits
// until done closes and then fails.
type phaseBarrier struct {
	n    int
	done <-chan struct{}

	mu      sync.Mutex
	arrived int
	gate    chan struct{}
}

func newPhaseBarrier(n int, done <-chan struct{}) *phaseBarrier {
	return &phaseBarrier{n: n, done: done, gate: make(chan struct{})}
}

func (b *phaseBarrier) wait() error {
	b.mu.Lock()
	gate := b.gate
	b.arrived++
	if b.arrived == b.n {
		close(gate)
		b.arrived, b.gate = 0, make(chan struct{})
	}
	b.mu.Unlock()
	select {
	case <-gate:
		return nil
	case <-b.done:
		b.mu.Lock()
		defer b.mu.Unlock()
		return fmt.Errorf("barrier: %d of %d probes of the phase arrived before the deadline", b.arrived, b.n)
	}
}

// barrierTransport is WithTransport middleware over the stock in-memory
// transport whose every probe waits for the whole phase.
type barrierTransport struct {
	inner Transport
	bar   *phaseBarrier
}

func (t barrierTransport) Invoke(ctx context.Context, server int, req Request) (Response, error) {
	if err := t.bar.wait(); err != nil {
		return Response{}, err
	}
	return t.inner.Invoke(ctx, server, req)
}

// barrierStore is a Mem store whose Apply waits for the whole write
// phase — a store that can block, and is not a *store.Mem.
type barrierStore struct {
	*store.Mem
	bar *phaseBarrier
}

func (s barrierStore) Apply(rec store.Record) error {
	if err := s.bar.wait(); err != nil {
		return err
	}
	return s.Mem.Apply(rec)
}

// TestBlockingProbesFanOut pins the other half of in-memory phases:
// where a probe can block, the phase's members still wait in parallel.
// The first two arms use barriers that release only once every member of
// the phase's quorum has arrived, so a serial loop deadlocks on the first
// probe and fails at the 5 s deadline — middleware fans out, and a write
// to a store that can block is staged at every member before the phase
// waits on any; the third times a latency-modelled read.
func TestBlockingProbesFanOut(t *testing.T) {
	const b = 3
	quorum := mustThreshold(t, b).MinQuorumSize()
	deadline := func(t *testing.T) context.Context {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		t.Cleanup(cancel)
		return ctx
	}

	t.Run("middleware", func(t *testing.T) {
		ctx := deadline(t)
		bar := newPhaseBarrier(quorum, ctx.Done())
		c, err := NewCluster(mustThreshold(t, b), b, WithTransport(func(servers []*Server) Transport {
			return barrierTransport{inner: NewInMemoryTransport(servers, 1), bar: bar}
		}))
		if err != nil {
			t.Fatal(err)
		}
		cl := c.NewClient(1)
		if err := cl.WriteKey(ctx, "k", "v"); err != nil {
			t.Fatalf("write through blocking middleware did not fan out: %v", err)
		}
		if tv, err := cl.ReadKey(ctx, "k"); err != nil || tv.Value != "v" {
			t.Fatalf("read through blocking middleware did not fan out: tv=%+v err=%v", tv, err)
		}
	})

	t.Run("blocking store", func(t *testing.T) {
		ctx := deadline(t)
		bar := newPhaseBarrier(quorum, ctx.Done())
		c, err := NewCluster(mustThreshold(t, b), b, WithStores(func(int) (store.Store, error) {
			return barrierStore{Mem: store.NewMem(), bar: bar}, nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cl := c.NewClient(1)
		if err := cl.WriteKey(ctx, "k", "v"); err != nil {
			t.Fatalf("write phase over stores that can block did not fan out: %v", err)
		}
		if tv, err := cl.ReadKey(ctx, "k"); err != nil || tv.Value != "v" {
			t.Fatalf("read after the write: tv=%+v err=%v", tv, err)
		}
	})

	t.Run("latency", func(t *testing.T) {
		const rtt = 20 * time.Millisecond
		c, err := NewCluster(mustThreshold(t, b), b, WithLatency(rtt, 0))
		if err != nil {
			t.Fatal(err)
		}
		cl := c.NewClient(1)
		start := time.Now()
		if _, err := cl.ReadKey(deadline(t), "k"); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took >= 5*rtt {
			t.Fatalf("read of a %d-member quorum at %v per probe took %v; parallel probes take ≈ %v, a serial loop ≥ %v",
				quorum, rtt, took, rtt, time.Duration(quorum)*rtt)
		}
	})
}

// BenchmarkQuorumPhase is the fan-out layer alone: one read phase of a
// fixed Threshold(13,3) quorum over Mem stores, no picker and no
// acceptance rule. inline is the default transport, which serves the
// phase on the benchmark's goroutine; fanout is the same in-memory
// delivery behind opaque middleware, which the cluster cannot see
// through, so every probe gets its own goroutine. shared-deadline is inline in the
// shape of a benchmark run: b.RunParallel goroutines, each its own
// client, probe under one context.WithTimeout context (run it with
// -cpu 2 or more for the goroutines to contend).
func BenchmarkQuorumPhase(b *testing.B) {
	sys, err := systems.NewMaskingThreshold(13, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name     string
		opts     []Option
		parallel bool
	}{
		{"inline", nil, false},
		{"fanout", []Option{WithTransport(func(servers []*Server) Transport {
			return opaqueTransport{t: NewInMemoryTransport(servers, 1)}
		})}, false},
		{"shared-deadline", nil, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opts := append([]Option{WithStores(func(int) (store.Store, error) { return store.NewMem(), nil })}, bc.opts...)
			c, err := NewCluster(sys, 3, opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			q, err := c.NewClient(1).pickQuorum(ctx)
			if err != nil {
				b.Fatal(err)
			}
			members := q.Elements()
			req := Request{Op: OpRead, Key: "k", ReaderID: 1}
			b.ReportAllocs()
			if !bc.parallel {
				out := make([]Response, len(members))
				for b.Loop() {
					if err := c.probeQuorum(ctx, 1, members, req, nil, out); err != nil {
						b.Fatal(err)
					}
				}
				return
			}
			deadline, cancel := context.WithTimeout(ctx, time.Hour)
			defer cancel()
			var clients atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				client := int(clients.Add(1))
				out := make([]Response, len(members))
				for pb.Next() {
					if err := c.probeQuorum(deadline, client, members, req, nil, out); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// The built-in transport serves whole phases itself.
var _ PhaseTransport = (*memTransport)(nil)

// phaseTransport is the stock in-memory transport behind a PhaseTransport
// face, counting what travels each way: whole phases and their probes
// through InvokePhase, lone probes through Invoke.
type phaseTransport struct {
	inner                  Transport
	phases, probes, direct atomic.Int64
}

func (t *phaseTransport) Invoke(ctx context.Context, server int, req Request) (Response, error) {
	t.direct.Add(1)
	return t.inner.Invoke(ctx, server, req)
}

func (t *phaseTransport) InvokePhase(ctx context.Context, members []int, req Request, out []Response) error {
	t.phases.Add(1)
	for k, i := range members {
		t.probes.Add(1)
		resp, err := t.inner.Invoke(ctx, i, req)
		if err != nil {
			return err
		}
		out[k] = resp
	}
	return nil
}

// TestPhaseTransportCarriesWholePhases: over a PhaseTransport every phase
// is one InvokePhase call and no probe travels alone, while the cluster
// still charges one access per member and, with telemetry on, records one
// bqs_quorum_probe_seconds sample per probe.
func TestPhaseTransportCarriesWholePhases(t *testing.T) {
	const b = 3
	reg := obs.NewRegistry()
	pt := &phaseTransport{}
	c, err := NewCluster(mustThreshold(t, b), b, WithMetrics(reg), WithTransport(func(servers []*Server) Transport {
		pt.inner = NewInMemoryTransport(servers, 1)
		return pt
	}))
	if err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(1)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := cl.WriteKey(ctx, "k", fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.ReadKey(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	if pt.direct.Load() != 0 || pt.phases.Load() != c.Phases() {
		t.Fatalf("%d lone probes and %d InvokePhase calls for %d phases, want 0 and one per phase",
			pt.direct.Load(), pt.phases.Load(), c.Phases())
	}
	charged := 0.0
	for _, f := range c.LoadProfile() {
		charged += f * float64(c.Phases())
	}
	if probes := pt.probes.Load(); math.Round(charged) != float64(probes) {
		t.Fatalf("load profile charges %v accesses for %d probes", charged, probes)
	}
	if got := reg.Histogram("bqs_quorum_probe_seconds", obs.DurationBuckets).Count(); got != pt.probes.Load() {
		t.Fatalf("bqs_quorum_probe_seconds has %d samples for %d probes", got, pt.probes.Load())
	}
}

// TestDeterministicLatencyTimesEachProbe: under a latency model the
// built-in transport calls a phase's members on the caller's goroutine,
// each at its arrival time, and each bqs_quorum_probe_seconds sample runs
// from the phase's start to that member's answer, not to the phase's end:
// with round trips spread over [1 ms, 9 ms] the mean probe sample stays
// well under the mean phase sample, where reporting the phase's wait for
// every member would make the two equal.
func TestDeterministicLatencyTimesEachProbe(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := NewCluster(mustThreshold(t, 2), 2, WithMetrics(reg), WithLatency(time.Millisecond, 8*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(1)
	for range 5 {
		if _, err := cl.ReadKey(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	mean := func(name string) time.Duration {
		h := reg.Histogram(name, obs.DurationBuckets)
		if h.Count() == 0 {
			t.Fatalf("no %s samples", name)
		}
		return time.Duration(h.Sum() / float64(h.Count()) * float64(time.Second))
	}
	probe, phase := mean("bqs_quorum_probe_seconds"), mean("bqs_quorum_phase_seconds")
	t.Logf("mean probe sample %v, mean phase sample %v", probe, phase)
	if probe > phase*3/4 {
		t.Fatalf("mean probe sample %v against a mean phase of %v: the samples time the phase, not its probes", probe, phase)
	}
}

// TestBatchFrameStagesEveryWrite: a Session frame over the built-in
// transport stages every write before it waits on any, as a phase does,
// so stores that block until the whole write phase has arrived each get
// their write; serving the frame item by item would hold it at the first
// store until the deadline.
func TestBatchFrameStagesEveryWrite(t *testing.T) {
	const b = 3
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	bar := newPhaseBarrier(mustThreshold(t, b).MinQuorumSize(), ctx.Done())
	c, err := NewCluster(mustThreshold(t, b), b, WithLatency(time.Microsecond, 0),
		WithStores(func(int) (store.Store, error) { return barrierStore{Mem: store.NewMem(), bar: bar}, nil }))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.NewClient(1).NewSession()
	defer s.Close()
	if !s.Batching() {
		t.Fatal("session bypasses the batcher despite modelled latency")
	}
	if err := s.Write(ctx, "k", "v"); err != nil {
		t.Fatalf("write through batch frames over stores that can block: %v", err)
	}
	if tv, err := s.Read(ctx, "k"); err != nil || tv.Value != "v" {
		t.Fatalf("read after the write: tv=%+v err=%v", tv, err)
	}
}

// TestOutOfRangeMemberFails: a phase naming a server the table lacks
// fails with an error, with or without a latency model, instead of
// indexing past the table while ordering the members by arrival.
func TestOutOfRangeMemberFails(t *testing.T) {
	for _, opts := range [][]Option{nil, {WithLatency(time.Microsecond, time.Microsecond)}} {
		c, err := NewCluster(mustThreshold(t, 1), 1, opts...)
		if err != nil {
			t.Fatal(err)
		}
		members := []int{0, c.N()}
		if err := c.probeQuorum(ctx, 1, members, Request{Op: OpRead, Key: "k"}, nil, make([]Response, 2)); err == nil {
			t.Errorf("latency=%v: a phase with member %d of %d servers did not fail", opts != nil, c.N(), c.N())
		}
	}
}
