package wire

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"bqs/internal/obs"
	"bqs/internal/sim"
)

// TestWireMetricsEndToEnd drives real frames over loopback with both
// sides instrumented into separate registries and pins the series: frame
// and byte counters by direction, batch-op distributions, dial outcomes,
// and the server's open-connection gauge. The client and server views
// must be mirror images — every frame the client sends is a frame the
// server receives.
func TestWireMetricsEndToEnd(t *testing.T) {
	regS := obs.NewRegistry()
	regC := obs.NewRegistry()

	reps := newReplicas([]int{0, 1, 2})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reps, WithServerMetrics(regS))
	go srv.Serve(lis)
	defer srv.Close()

	routes := map[int]string{0: lis.Addr().String(), 1: lis.Addr().String(), 2: lis.Addr().String()}
	cl, err := Dial(routes, WithMetrics(regC))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx := context.Background()
	const ops = 20
	for i := 0; i < ops; i++ {
		resp, err := cl.Invoke(ctx, i%3, sim.Request{Op: sim.OpWrite, Value: sim.TaggedValue{
			Value: "v", TS: sim.Timestamp{Seq: int64(i)},
		}})
		if err != nil || !resp.OK {
			t.Fatalf("op %d: resp %+v err %v", i, resp, err)
		}
	}

	if v, _ := regC.Value("bqs_wire_dials_total", "result", "ok"); v < 1 {
		t.Fatalf("client dials ok = %v, want >= 1", v)
	}
	if v, _ := regC.Value("bqs_wire_dials_total", "result", "err"); v != 0 {
		t.Fatalf("client dial errors = %v, want 0", v)
	}
	// 20 requests out, 20 responses in. The server counts a frame out
	// after its write returns, by which time the client may already have
	// read the reply and returned — so the mirror is polled until it
	// settles rather than read once.
	frames := func(reg *obs.Registry, side, dir string) float64 {
		v, _ := reg.Value("bqs_wire_frames_total", "side", side, "dir", dir)
		return v
	}
	var cOut, cIn, sIn, sOut float64
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		cOut, cIn = frames(regC, "client", "out"), frames(regC, "client", "in")
		sIn, sOut = frames(regS, "server", "in"), frames(regS, "server", "out")
		if (cOut == sIn && cIn == sOut) || time.Now().After(deadline) {
			break
		}
	}
	if cOut != ops || cIn != ops {
		t.Fatalf("client frames out=%v in=%v, want %d each", cOut, cIn, ops)
	}
	if cOut != sIn || cIn != sOut {
		t.Fatalf("mirror broken: client out=%v server in=%v, client in=%v server out=%v",
			cOut, sIn, cIn, sOut)
	}
	cBytesOut, _ := regC.Value("bqs_wire_bytes_total", "side", "client", "dir", "out")
	sBytesIn, _ := regS.Value("bqs_wire_bytes_total", "side", "server", "dir", "in")
	if cBytesOut <= 0 || cBytesOut != sBytesIn {
		t.Fatalf("bytes mirror broken: client out=%v server in=%v", cBytesOut, sBytesIn)
	}

	if v, _ := regS.Value("bqs_wire_open_conns_count"); v != 1 {
		t.Fatalf("open conns gauge = %v, want 1", v)
	}

	// Every data frame feeds the per-frame op-count distributions on both
	// sides: the 20 lone probes above as frames of one, then a frame of
	// three.
	items := []sim.BatchItem{
		{Server: 0, Req: sim.Request{Op: sim.OpRead}},
		{Server: 1, Req: sim.Request{Op: sim.OpRead}},
		{Server: 2, Req: sim.Request{Op: sim.OpRead}},
	}
	if _, err := cl.InvokeBatch(ctx, items); err != nil {
		t.Fatal(err)
	}
	ch := regC.Histogram("bqs_wire_batch_ops", obs.SizeBuckets, "side", "client")
	sh := regS.Histogram("bqs_wire_batch_ops", obs.SizeBuckets, "side", "server")
	if ch.Count() != ops+1 || int(ch.Sum()) != ops+len(items) {
		t.Fatalf("client batch hist count=%d sum=%v, want %d frames carrying %d ops", ch.Count(), ch.Sum(), ops+1, ops+len(items))
	}
	if sh.Count() != ops+1 || int(sh.Sum()) != ops+len(items) {
		t.Fatalf("server batch hist count=%d sum=%v, want %d frames carrying %d ops", sh.Count(), sh.Sum(), ops+1, ops+len(items))
	}

	// Closing the client drains the server's open-connection gauge.
	cl.Close()
	deadline := 200
	for ; deadline > 0; deadline-- {
		if v, _ := regS.Value("bqs_wire_open_conns_count"); v == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if deadline == 0 {
		t.Fatal("open-conns gauge never drained after client close")
	}
}

// TestWireMetricsDialError pins the failure counter and its event-log
// companion: a dial to a dead address counts result="err" and leaves a
// scrapeable trace in /events.
func TestWireMetricsDialError(t *testing.T) {
	// Reserve an address, then close it so the dial fails fast.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	reg := obs.NewRegistry()
	cl, err := Dial(map[int]string{0: addr}, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Invoke(context.Background(), 0, sim.Request{Op: sim.OpRead})
	if err != nil || resp.OK {
		t.Fatalf("dead address: resp %+v err %v, want OK=false", resp, err)
	}
	if v, _ := reg.Value("bqs_wire_dials_total", "result", "err"); v < 1 {
		t.Fatalf("dial errors = %v, want >= 1", v)
	}
	evs := reg.Events()
	if len(evs) == 0 {
		t.Fatal("dial failure left no event")
	}
}

// TestWireFlushFramesMetric pins bqs_wire_flush_frames on both sides:
// sequential probes are one frame per socket flush exactly — a lone frame
// is never held back — and ten concurrent probes on one connection share
// flushes, so the mean rises above one.
func TestWireFlushFramesMetric(t *testing.T) {
	regS, regC := obs.NewRegistry(), obs.NewRegistry()
	addr, _ := startShard(t, newReplicas([]int{0}), WithServerMetrics(regS))
	cl, err := Dial(map[int]string{0: addr}, WithMetrics(regC))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	read := func() error {
		if resp, err := cl.Invoke(ctx, 0, sim.Request{Op: sim.OpRead}); err != nil || !resp.OK {
			return fmt.Errorf("resp %+v err %v", resp, err)
		}
		return nil
	}
	hists := map[string]*obs.Histogram{
		"client": regC.Histogram("bqs_wire_flush_frames", obs.SizeBuckets, "side", "client"),
		"server": regS.Histogram("bqs_wire_flush_frames", obs.SizeBuckets, "side", "server"),
	}

	const sequential = 20
	for i := 0; i < sequential; i++ {
		if err := read(); err != nil {
			t.Fatal(err)
		}
	}
	for side, h := range hists {
		if h.Count() != sequential || h.Sum() != sequential {
			t.Fatalf("%s: %d flushes carried %v frames for %d sequential probes, want one frame per flush", side, h.Count(), h.Sum(), sequential)
		}
	}

	const callers, rounds = 10, 100
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := read(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for side, h := range hists {
		frames, flushes := h.Sum()-sequential, float64(h.Count()-sequential)
		if frames != callers*rounds {
			t.Fatalf("%s: flushes carried %v frames, want %d", side, frames, callers*rounds)
		}
		if frames/flushes <= 1 {
			t.Fatalf("%s: %v frames in %v flushes under %d concurrent probes, want more than one per flush", side, frames, flushes, callers)
		}
		t.Logf("%s: %.2f frames per flush under %d concurrent probes", side, frames/flushes, callers)
	}
}
