package sim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"bqs/internal/systems"
)

// faultProxy is the WithTransport middleware pattern the option's docs
// promise works: wrap NewInMemoryTransport, count every probe, and
// optionally rewrite outcomes per server. It pins the documented
// contract — Response{OK: false} is suspicion (the client re-selects a
// quorum around the server), a non-nil error is an abort (the operation
// fails outright).
type faultProxy struct {
	inner    Transport
	invokes  atomic.Int64
	perSrv   []atomic.Int64
	unresp   atomic.Int64 // server id whose responses become OK: false (−1 none)
	unrespN  atomic.Int64 // how many more probes to rewrite
	abortErr atomic.Value // error every probe to abortSrv returns
	abortSrv atomic.Int64 // −1 none, −2 every server
}

func newFaultProxy(servers []*Server) *faultProxy {
	p := &faultProxy{
		inner:  NewInMemoryTransport(servers, 1),
		perSrv: make([]atomic.Int64, len(servers)),
	}
	p.unresp.Store(-1)
	p.abortSrv.Store(-1)
	return p
}

func (p *faultProxy) Invoke(ctx context.Context, server int, req Request) (Response, error) {
	p.invokes.Add(1)
	p.perSrv[server].Add(1)
	if sel := p.abortSrv.Load(); sel == int64(server) || sel == -2 {
		return Response{}, p.abortErr.Load().(error)
	}
	if int64(server) == p.unresp.Load() && p.unrespN.Add(-1) >= 0 {
		return Response{OK: false}, nil
	}
	return p.inner.Invoke(ctx, server, req)
}

// TestWithTransportFaultInjection extends TestWithTransportMiddleware
// (the plain counting wrapper) with outcome rewriting, pinning the two
// halves of the Transport contract that quorum re-selection depends on.
func TestWithTransportFaultInjection(t *testing.T) {
	sys, err := systems.NewMaskingThreshold(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	var proxy *faultProxy
	cluster, err := NewCluster(sys, 2, WithTransport(func(servers []*Server) Transport {
		proxy = newFaultProxy(servers)
		return proxy
	}))
	if err != nil {
		t.Fatal(err)
	}
	if proxy == nil {
		t.Fatal("WithTransport factory was never called")
	}
	if cluster.transport != Transport(proxy) {
		t.Fatal("cluster did not install the middleware transport")
	}
	ctx := context.Background()

	// Plain traffic flows through the middleware: every probe is counted,
	// and the counts agree with the cluster's own load accounting.
	cl := cluster.NewClient(1)
	if err := cl.Write(ctx, "v1"); err != nil {
		t.Fatalf("write through middleware: %v", err)
	}
	if tv, err := cl.Read(ctx); err != nil || tv.Value != "v1" {
		t.Fatalf("read through middleware: tv=%+v err=%v", tv, err)
	}
	seen := proxy.invokes.Load()
	if seen == 0 {
		t.Fatal("middleware saw no probes")
	}
	total := int64(0)
	for i := range proxy.perSrv {
		total += proxy.perSrv[i].Load()
	}
	if total != seen {
		t.Fatalf("per-server counts sum to %d, want %d", total, seen)
	}

	// Contract half 1: OK:false is suspicion. Make server 0 unresponsive
	// for a bounded number of probes; operations keep succeeding because
	// the client re-selects quorums around the suspect, never erroring.
	proxy.unrespN.Store(4)
	proxy.unresp.Store(0)
	if err := cl.Write(ctx, "v2"); err != nil {
		t.Fatalf("write with transient unresponsiveness must retry, got: %v", err)
	}
	if tv, err := cl.Read(ctx); err != nil || tv.Value != "v2" {
		t.Fatalf("read after suspicion recovery: tv=%+v err=%v", tv, err)
	}
	proxy.unresp.Store(-1)

	// Contract half 2: an error is an abort. The client must not swallow
	// it into retries — the operation fails and wraps the exact error.
	sentinel := errors.New("middleware: injected transport failure")
	proxy.abortErr.Store(sentinel)
	proxy.abortSrv.Store(-2) // every probe errors, whatever quorum is drawn
	w := cluster.NewClient(2)
	w.MaxRetries = 100 // prove failure is immediate, not retry exhaustion
	err = w.Write(ctx, "v3")
	if !errors.Is(err, sentinel) {
		t.Fatalf("write through erroring middleware: err=%v, want wrapped sentinel", err)
	}
	if _, err := w.Read(ctx); !errors.Is(err, sentinel) {
		t.Fatalf("read through erroring middleware: err=%v, want wrapped sentinel", err)
	}
	if errors.Is(err, ErrRetriesExhausted) {
		t.Fatal("abort must not be reported as retry exhaustion")
	}

	// Clearing the fault restores service on the same cluster.
	proxy.abortSrv.Store(-1)
	if err := w.Write(ctx, "v4"); err != nil {
		t.Fatalf("write after clearing abort: %v", err)
	}
	if tv, err := cl.Read(ctx); err != nil || tv.Value != "v4" {
		t.Fatalf("final read: tv=%+v err=%v", tv, err)
	}
}
