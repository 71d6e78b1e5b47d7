package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bqs/internal/obs"
	"bqs/internal/sim"
	"bqs/internal/store"
)

// gateConn is a net.Conn whose Write the test controls: every Write
// announces itself on entered, then waits for a token from gate (or for
// gate to be closed), records how many frames it carries, and fails with
// failWith from write number failFrom on.
type gateConn struct {
	net.Conn
	entered chan struct{}
	gate    chan struct{}

	mu       sync.Mutex
	writes   []int // frames carried by each Write, in order
	failFrom int   // 1-based; 0 = never
	failWith error
}

func newGateConn(nc net.Conn) *gateConn {
	return &gateConn{Conn: nc, entered: make(chan struct{}, 64), gate: make(chan struct{})}
}

func (g *gateConn) Write(p []byte) (int, error) {
	g.entered <- struct{}{}
	<-g.gate
	frames := 0
	for rest := p; len(rest) >= 4; frames++ {
		rest = rest[4+binary.BigEndian.Uint32(rest):]
	}
	g.mu.Lock()
	g.writes = append(g.writes, frames)
	fail := g.failFrom > 0 && len(g.writes) >= g.failFrom
	g.mu.Unlock()
	if fail {
		return 0, g.failWith
	}
	return g.Conn.Write(p)
}

func (g *gateConn) frameCounts() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.writes...)
}

// barrierYield stands in for a frameWriter's scheduler yield: the first
// sender to yield passes at once (it is the one whose flush the test holds
// at the gate), every later one reports on arrived and waits for release.
// That turns "every goroutine ready to send got its frame in" from a
// scheduling likelihood into an event the test can wait for.
func barrierYield(w *frameWriter) (arrived <-chan struct{}, release func()) {
	arr, rel := make(chan struct{}, 64), make(chan struct{})
	var first atomic.Bool
	w.mu.Lock()
	w.yield = func() {
		if first.CompareAndSwap(false, true) {
			return
		}
		arr <- struct{}{}
		<-rel
	}
	w.mu.Unlock()
	return arr, sync.OnceFunc(func() { close(rel) })
}

// fakeShard is a stand-in for wire.Server that answers every batch frame
// with all-OK responses straight from the connection's read goroutine,
// after calling before (if non-nil), so a test decides when — and whether
// — a reply comes.
func fakeShard(t *testing.T, before func(items []sim.BatchItem)) string {
	t.Helper()
	return scriptedShard(t, func(nc net.Conn, id uint64, items []sim.BatchItem) error {
		if before != nil {
			before(items)
		}
		resps := make([]sim.Response, len(items))
		for i := range resps {
			resps[i].OK = true
		}
		out, _ := AppendBatchResponse(nil, id, resps)
		_, err := nc.Write(out)
		return err
	})
}

// scriptedShard is a stand-in for wire.Server that hands every batch frame
// to serve on the connection's read goroutine; serve writes whatever answer
// the test wants, and an error from it drops the connection. Every
// connection is closed when the test ends.
func scriptedShard(t *testing.T, serve func(nc net.Conn, id uint64, items []sim.BatchItem) error) string {
	t.Helper()
	addr, _ := frameShard(t, func(nc net.Conn, frame []byte) error {
		if frame[0] != tagBatchRequest {
			return nil
		}
		id, items, err := DecodeBatchRequest(frame)
		if err != nil {
			return err
		}
		return serve(nc, id, items)
	})
	return addr
}

// frameShard is scriptedShard for every kind of frame: serve gets each
// frame's payload. stop closes the listener and every connection, as the
// end of the test does.
func frameShard(t *testing.T, serve func(nc net.Conn, frame []byte) error) (addr string, stop func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	stop = sync.OnceFunc(func() {
		lis.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, nc := range conns {
			nc.Close()
		}
	})
	t.Cleanup(stop)
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
			go func() {
				defer nc.Close()
				br := bufio.NewReader(nc)
				var buf []byte
				for {
					frame, err := ReadFrame(br, buf)
					if err != nil {
						return
					}
					buf = frame
					if serve(nc, frame) != nil {
						return
					}
				}
			}()
		}
	}()
	return lis.Addr().String(), stop
}

// gatedClientConn dials addr, wraps the socket in a gateConn and installs
// it as the live connection of cl's (single) pool slot for addr, so the
// test owns the client's write(2)s.
func gatedClientConn(t *testing.T, cl *Client, addr string) (*conn, *gateConn) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	g := newGateConn(raw)
	cn, err := cl.conn(addr)
	if err != nil {
		t.Fatal(err)
	}
	cn.mu.Lock()
	cn.attachLocked(g)
	cn.mu.Unlock()
	return cn, g
}

func probe(i int) []sim.BatchItem {
	return []sim.BatchItem{{Server: 0, Req: sim.Request{Op: sim.OpRead, Key: fmt.Sprintf("k%d", i)}}}
}

func waitN(t *testing.T, ch <-chan struct{}, n int, what string) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s (%d of %d)", what, i, n)
		}
	}
}

// TestClientCoalescesBehindHeldFlush pins the mechanism of the flush rule
// on the client: while one caller's flush is held in write(2), nine more
// callers queue up behind it; once each has its frame in the buffer, the
// next write(2) carries all nine.
func TestClientCoalescesBehindHeldFlush(t *testing.T) {
	addr := fakeShard(t, nil)
	cl, err := Dial(map[int]string{0: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cn, g := gatedClientConn(t, cl, addr)
	arrived, release := barrierYield(cn.w)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	oks := make([]bool, 10)
	call := func(i int) {
		defer wg.Done()
		resps, err := cl.InvokeBatch(ctx, probe(i))
		oks[i] = err == nil && resps[0].OK
	}
	wg.Add(1)
	go call(0)
	waitN(t, g.entered, 1, "the first flush to reach write(2)")
	for i := 1; i < 10; i++ {
		wg.Add(1)
		go call(i)
	}
	g.gate <- struct{}{} // the held flush completes, carrying frame 0 alone
	waitN(t, arrived, 9, "nine callers to buffer their frames")
	release()
	close(g.gate)
	wg.Wait()
	if got := g.frameCounts(); len(got) != 2 || got[0] != 1 || got[1] != 9 {
		t.Fatalf("frames per write(2) = %v, want [1 9]", got)
	}
	for i, ok := range oks {
		if !ok {
			t.Errorf("call %d did not complete OK", i)
		}
	}
}

// TestClientFailedCoalescedFlush: when the write(2) that carries nine
// callers' frames fails, every call in flight on the connection — the
// nine and the one already on the wire — resolves to OK: false exactly
// once, nobody hangs, and the next call redials. A waiter is answered
// only by whoever deletes it from the connection's pending table, so an
// empty table once every call returned means each was answered once.
func TestClientFailedCoalescedFlush(t *testing.T) {
	hold, holding := make(chan struct{}), make(chan struct{}, 1)
	var held atomic.Bool
	addr := fakeShard(t, func([]sim.BatchItem) {
		if held.CompareAndSwap(false, true) {
			holding <- struct{}{}
			<-hold // the first connection's replies never come
		}
	})
	defer close(hold)
	reg := obs.NewRegistry()
	cl, err := Dial(map[int]string{0: addr}, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cn, g := gatedClientConn(t, cl, addr)
	g.failFrom, g.failWith = 2, errors.New("injected write failure")
	arrived, release := barrierYield(cn.w)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	replies := make([][]sim.Response, 10)
	call := func(i int) {
		defer wg.Done()
		var err error
		if replies[i], err = cl.InvokeBatch(ctx, probe(i)); err != nil {
			t.Errorf("call %d hung until its deadline: %v", i, err)
		}
	}
	wg.Add(1)
	go call(0)
	waitN(t, g.entered, 1, "the first flush to reach write(2)")
	for i := 1; i < 10; i++ {
		wg.Add(1)
		go call(i)
	}
	g.gate <- struct{}{}
	waitN(t, arrived, 9, "nine callers to buffer their frames")
	release()
	close(g.gate) // the combined write(2) now runs, and fails
	wg.Wait()
	if got := g.frameCounts(); len(got) != 2 || got[1] != 9 {
		t.Fatalf("frames per write(2) = %v, want the failing second one to carry 9", got)
	}
	for i, r := range replies {
		if len(r) != 1 || r[0].OK {
			t.Errorf("call %d resolved to %+v, want one OK:false response", i, r)
		}
	}
	cn.mu.Lock()
	left := len(cn.pending)
	cn.mu.Unlock()
	if left != 0 {
		t.Errorf("%d waiters still pending after every call returned", left)
	}
	// The connection is gone: the next call dials a fresh one (the gated
	// one was attached by hand, so this is the client's first dial) and is
	// served. The shard must be holding frame 0 first, or the redial's
	// probe could be the batch it holds.
	waitN(t, holding, 1, "the shard to hold frame 0")
	resp, err := cl.Invoke(ctx, 0, sim.Request{Op: sim.OpRead})
	if err != nil || !resp.OK {
		t.Fatalf("call after the failed flush: resp=%+v err=%v, want a served redial", resp, err)
	}
	if v, _ := reg.Value("bqs_wire_dials_total", "result", "ok"); v != 1 {
		t.Fatalf("dials after the failed flush = %v, want 1", v)
	}
}

// TestLoneFrameIsNotStarved: a single probe on an idle connection reaches
// the socket while its caller waits for the reply, with no second sender
// needed to trigger the flush: the shard sees the frame while it still
// holds the reply back.
func TestLoneFrameIsNotStarved(t *testing.T) {
	hold, seen := make(chan struct{}), make(chan struct{}, 1)
	addr := fakeShard(t, func([]sim.BatchItem) {
		seen <- struct{}{}
		<-hold
	})
	cl, err := Dial(map[int]string{0: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, g := gatedClientConn(t, cl, addr)
	close(g.gate)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type result struct {
		resps []sim.Response
		err   error
	}
	done := make(chan result, 1)
	go func() {
		resps, err := cl.InvokeBatch(ctx, probe(0))
		done <- result{resps, err}
	}()
	waitN(t, seen, 1, "the lone frame to reach the shard")
	if got := g.frameCounts(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("while the reply is held, frames per write(2) = %v, want [1]", got)
	}
	close(hold)
	if got := <-done; got.err != nil || !got.resps[0].OK {
		t.Fatalf("lone probe: reply=%+v err=%v", got.resps, got.err)
	}
}

// gateListener hands the server gateConns, so the test owns the server's
// write(2)s.
type gateListener struct {
	net.Listener
	conns chan *gateConn
}

func (l *gateListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	g := newGateConn(nc)
	l.conns <- g
	return g, nil
}

// opaqueStore is a Mem the shard cannot see through: store.Stage applies
// each write on a goroutine behind a pending commit, so the shard hands
// each write frame's wait to a goroutine, as it would over a store.Disk.
type opaqueStore struct{ store.Store }

// gatedServer serves replica 0 behind a gateListener and returns a raw
// client socket to it plus the server's side of that connection: the
// gated socket and the frameWriter its read loop and handlers share. With
// handlers, the replica's store is opaque, so write frames are answered
// by goroutines; without, on the read loop.
func gatedServer(t *testing.T, handlers bool) (*Server, *sim.Server, net.Conn, *gateConn, *frameWriter) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gl := &gateListener{Listener: lis, conns: make(chan *gateConn, 1)}
	reps := newReplicas([]int{0})
	if handlers {
		reps[0] = sim.NewServer(0, sim.WithStore(opaqueStore{store.NewMem()}))
	}
	srv := NewServer(reps)
	go srv.Serve(gl)
	t.Cleanup(func() { srv.Close() })
	raw, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	g := <-gl.conns
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		w := srv.conns[g]
		srv.mu.Unlock()
		if w != nil {
			return srv, reps[0], raw, g, w
		}
		if time.Now().After(deadline) {
			t.Fatal("the server never registered the accepted connection")
		}
	}
}

// writeProbes puts request frames ids[0], ids[1], … on the raw socket in
// one write, each a write of key "k<id>".
func writeProbes(t *testing.T, raw net.Conn, ids ...uint64) {
	t.Helper()
	if _, err := raw.Write(probeFrames(ids...)); err != nil {
		t.Fatal(err)
	}
}

// probeFrames encodes the request frames writeProbes sends.
func probeFrames(ids ...uint64) []byte {
	var out []byte
	for _, id := range ids {
		out, _ = AppendBatchRequest(out, id, []sim.BatchItem{{Server: 0, Req: sim.Request{
			Op: sim.OpWrite, Key: fmt.Sprintf("k%d", id), Value: sim.TaggedValue{Value: "v", TS: sim.Timestamp{Seq: 1, Writer: 1}},
		}}})
	}
	return out
}

// readReplies reads n reply frames off the raw socket and returns the set
// of ids answered OK.
func readReplies(t *testing.T, raw net.Conn, n int) map[uint64]bool {
	t.Helper()
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(raw)
	got := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		frame, err := ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("reply %d of %d: %v", i, n, err)
		}
		id, resps, err := decodeBatchResponse(frame, nil, nil)
		if err != nil || len(resps) != 1 || !resps[0].OK {
			t.Fatalf("reply %d: id=%d resps=%+v err=%v", i, id, resps, err)
		}
		got[id] = true
	}
	return got
}

// TestServerCoalescesBehindHeldFlush is the mirror of the client test for
// reply frames on a shard whose write frames are answered by goroutines
// (each waits on a pending commit): while the first one's flush is held,
// nine more queue behind it, and the next write(2) carries all nine replies.
func TestServerCoalescesBehindHeldFlush(t *testing.T) {
	_, _, raw, g, w := gatedServer(t, true)
	arrived, release := barrierYield(w)
	writeProbes(t, raw, 1)
	waitN(t, g.entered, 1, "the first reply's flush to reach write(2)")
	writeProbes(t, raw, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	g.gate <- struct{}{}
	waitN(t, arrived, 9, "nine handlers to buffer their replies")
	release()
	close(g.gate)
	if got := readReplies(t, raw, 10); len(got) != 10 {
		t.Fatalf("answered ids = %v, want all of 1..10", got)
	}
	if got := g.frameCounts(); len(got) != 2 || got[0] != 1 || got[1] != 9 {
		t.Fatalf("reply frames per write(2) = %v, want [1 9]", got)
	}
}

// TestServerAnswersBurstInOneWrite: on a shard over store.Mem,
// ten request frames that arrive in one write(2) are answered on the read
// loop and their replies leave in one write(2) — the loop flushes only
// once no whole frame is left to read.
func TestServerAnswersBurstInOneWrite(t *testing.T) {
	_, _, raw, g, _ := gatedServer(t, false)
	close(g.gate)
	writeProbes(t, raw, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	if got := readReplies(t, raw, 10); len(got) != 10 {
		t.Fatalf("answered ids = %v, want all of 1..10", got)
	}
	if got := g.frameCounts(); len(got) != 1 || got[0] != 10 {
		t.Fatalf("reply frames per write(2) = %v, want [10]", got)
	}
}

// TestServerFlushesBeforeBlockingRead: when a whole frame arrives with
// only the first half of the next, the read loop must put the first reply
// on the socket before it blocks in read(2) for the rest — the sender of
// the second half is waiting for that reply first. A loop that flushed
// only after its next read would never answer.
func TestServerFlushesBeforeBlockingRead(t *testing.T) {
	_, _, raw, g, _ := gatedServer(t, false)
	close(g.gate)
	first, second := probeFrames(1), probeFrames(2)
	half := len(second) / 2
	if _, err := raw.Write(append(first, second[:half]...)); err != nil {
		t.Fatal(err)
	}
	if got := readReplies(t, raw, 1); !got[1] {
		t.Fatalf("answered ids = %v, want 1 before the rest of frame 2 is sent", got)
	}
	if _, err := raw.Write(second[half:]); err != nil {
		t.Fatal(err)
	}
	if got := readReplies(t, raw, 1); !got[2] {
		t.Fatalf("answered ids = %v, want 2", got)
	}
	if got := g.frameCounts(); len(got) != 2 || got[0] != 1 || got[1] != 1 {
		t.Fatalf("reply frames per write(2) = %v, want [1 1]", got)
	}
}

// TestShutdownDrainsCoalescedReplies: Shutdown returns only after the
// reply to every accepted frame has been flushed — replies a read loop has
// buffered, and replies riding in the buffer behind somebody else's held
// flush.
func TestShutdownDrainsCoalescedReplies(t *testing.T) {
	for name, handlers := range map[string]bool{"read loop": false, "handlers": true} {
		t.Run(name, func(t *testing.T) {
			srv, rep, raw, g, _ := gatedServer(t, handlers)
			writeProbes(t, raw, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
			waitN(t, g.entered, 1, "a reply flush to reach write(2)")
			// Every frame is accepted once its write is applied (its reply then
			// sits in, or queues behind, the held flush).
			for deadline := time.Now().Add(10 * time.Second); len(rep.Keys()) < 10; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("only %d of 10 frames were handled", len(rep.Keys()))
				}
			}
			done := make(chan error, 1)
			go func() { done <- srv.Shutdown(context.Background()) }()
			select {
			case err := <-done:
				t.Fatalf("Shutdown returned (%v) while replies were still unflushed", err)
			case <-time.After(50 * time.Millisecond):
			}
			close(g.gate)
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("Shutdown: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Shutdown never returned after the flush was released")
			}
			if got := readReplies(t, raw, 10); len(got) != 10 {
				t.Fatalf("replies flushed before Shutdown returned = %v, want all of 1..10", got)
			}
		})
	}
}

// TestInvokeBatchOverlapsShards: a batch spanning two shards puts both
// frames on the wire before it waits for either reply. Each shard answers
// only once the other has seen its frame too, so a client that sent the
// second frame after the first reply — one round trip per shard — would
// never finish.
func TestInvokeBatchOverlapsShards(t *testing.T) {
	aSeen, bSeen := make(chan struct{}), make(chan struct{})
	addrA := fakeShard(t, func([]sim.BatchItem) { close(aSeen); <-bSeen })
	addrB := fakeShard(t, func([]sim.BatchItem) { close(bSeen); <-aSeen })
	cl, err := Dial(map[int]string{0: addrA, 1: addrB})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resps, err := cl.InvokeBatch(ctx, []sim.BatchItem{
		{Server: 0, Req: sim.Request{Op: sim.OpRead}},
		{Server: 1, Req: sim.Request{Op: sim.OpRead}},
	})
	if err != nil || !resps[0].OK || !resps[1].OK {
		t.Fatalf("resps=%+v err=%v, want both shards' answers from overlapped round trips", resps, err)
	}
}
