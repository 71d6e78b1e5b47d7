package sim

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

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

// TestBlockingProbesFanOut pins the other half of inline probing: where
// a probe can block, a phase still fans out in parallel. The first two
// arms use barriers that release only once every member of the phase's
// quorum has arrived, so a serial loop deadlocks on the first probe and
// fails at the 5 s deadline; the third times a latency-modelled read.
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
// acceptance rule. inline is the default transport, which the phase calls
// on the benchmark's goroutine; fanout is the same in-memory delivery
// behind WithTransport, which the cluster cannot see through, so every
// probe gets its own goroutine.
func BenchmarkQuorumPhase(b *testing.B) {
	sys, err := systems.NewMaskingThreshold(13, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		opts []Option
	}{
		{"inline", nil},
		{"fanout", []Option{WithTransport(func(servers []*Server) Transport { return NewInMemoryTransport(servers, 1) })}},
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
			for b.Loop() {
				if _, err := c.probeQuorum(ctx, members, req, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
