package wire

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

	"bqs/internal/reconfig"
	"bqs/internal/sim"
	"bqs/internal/store"
)

// heldStore is a Mem whose Applies wait until the test releases them,
// and which the shard cannot see through: a write to it is staged behind
// a pending commit, like a write to a store.Disk waiting for its fsync.
type heldStore struct {
	store.Store
	entered chan struct{} // one token per Apply; buffered so that Applies after the release, which no test awaits, never block
	release chan struct{} // closed by the test: every Apply, held or later, proceeds
}

func (h *heldStore) Apply(rec store.Record) error {
	h.entered <- struct{}{}
	<-h.release
	return h.Store.Apply(rec)
}

// heldShard serves replicas 0 and 1, replica 0 over a heldStore, and
// returns a raw client socket to it with a reader for its replies.
func heldShard(t *testing.T) (*Server, map[int]*sim.Server, *heldStore, net.Conn, *bufio.Reader) {
	t.Helper()
	held := &heldStore{Store: store.NewMem(), entered: make(chan struct{}, 16), release: make(chan struct{})}
	reps := map[int]*sim.Server{0: sim.NewServer(0, sim.WithStore(held)), 1: sim.NewServer(1)}
	addr, srv := startShard(t, reps)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	return srv, reps, held, raw, bufio.NewReader(raw)
}

// sendItem puts a one-item batch frame on raw, gated at gate (0: ungated).
func sendItem(t *testing.T, raw net.Conn, id, gate uint64, it sim.BatchItem) {
	t.Helper()
	frame, err := appendBatchRequest(nil, id, gate, []sim.BatchItem{it})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// nextReply reads one batch reply off br and returns its id and its
// item's response.
func nextReply(t *testing.T, raw net.Conn, br *bufio.Reader) (uint64, sim.Response) {
	t.Helper()
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	frame, err := ReadFrame(br, nil)
	if err != nil {
		t.Fatalf("reading a reply: %v", err)
	}
	id, resps, err := decodeBatchResponse(frame, nil, nil)
	if err != nil || len(resps) != 1 {
		t.Fatalf("reply %d: resps=%+v err=%v", id, resps, err)
	}
	return id, resps[0]
}

var heldWrite = sim.BatchItem{Server: 0, Req: sim.Request{Op: sim.OpWrite, Key: "k",
	Value: sim.TaggedValue{Value: "held", TS: sim.Timestamp{Seq: 1, Writer: 1}}}}

// notYet fails the test if done is closed, or delivers, within 50 ms.
func notYet[T any](t *testing.T, done <-chan T, what string) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("%s before the held write was released", what)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestPendingCommitLeavesTheLoop pins the handoff of a frame whose write
// waits for its commit: only the wait leaves the connection's read loop,
// and the epoch gate and Shutdown's drain still cover the write.
func TestPendingCommitLeavesTheLoop(t *testing.T) {
	// A read sent after the held write, on the same connection, is
	// answered while the write still waits.
	t.Run("read overtakes", func(t *testing.T) {
		_, _, held, raw, br := heldShard(t)
		sendItem(t, raw, 1, 0, heldWrite)
		<-held.entered
		sendItem(t, raw, 2, 0, sim.BatchItem{Server: 0, Req: sim.Request{Op: sim.OpRead, Key: "k"}})
		if id, resp := nextReply(t, raw, br); id != 2 || !resp.OK {
			t.Fatalf("first reply: id=%d %+v, want the read (id 2) answered OK", id, resp)
		}
		close(held.release)
		if id, resp := nextReply(t, raw, br); id != 1 || !resp.OK {
			t.Fatalf("second reply: id=%d %+v, want the write (id 1) acked", id, resp)
		}
	})

	// An install of epoch 1, started while a write gated at epoch 0
	// waits, is the shard's drain: it returns only after the write's
	// commit, and its merge carries the write to replica 1.
	t.Run("install drains", func(t *testing.T) {
		srv, reps, held, raw, br := heldShard(t)
		sendItem(t, raw, 1, 1, heldWrite) // gate 1: epoch 0
		<-held.entered
		installed := make(chan reconfig.Record, 1)
		rec := reconfig.Record{Epoch: 1, Kind: "threshold", Universe: 2, B: 0}
		go func() { installed <- srv.install(rec) }()
		notYet(t, installed, "install returned")
		close(held.release)
		select {
		case got := <-installed:
			if got != rec {
				t.Fatalf("install = %+v, want %+v", got, rec)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("install never returned after the release")
		}
		if id, resp := nextReply(t, raw, br); id != 1 || !resp.OK {
			t.Fatalf("reply id=%d %+v, want the gated write acked", id, resp)
		}
		for id, rep := range reps {
			if tv := rep.SnapshotKey("k"); tv != heldWrite.Req.Value {
				t.Errorf("replica %d after the install holds %+v, want the drained write %+v", id, tv, heldWrite.Req.Value)
			}
		}
	})

	// Shutdown, started while the write waits, returns only once that
	// write's reply is on the socket.
	t.Run("shutdown drains", func(t *testing.T) {
		srv, _, held, raw, br := heldShard(t)
		sendItem(t, raw, 1, 0, heldWrite)
		<-held.entered
		done := make(chan error, 1)
		go func() { done <- srv.Shutdown(context.Background()) }()
		notYet(t, done, "Shutdown returned")
		close(held.release)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Shutdown never returned after the release")
		}
		if id, resp := nextReply(t, raw, br); id != 1 || !resp.OK {
			t.Fatalf("reply id=%d %+v, want the write acked before Shutdown returned", id, resp)
		}
	})
}
