package wire

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bqs/internal/obs"
	"bqs/internal/reconfig"
	"bqs/internal/sim"
)

// sentinel marks a reply slot the test owns; no reply may overwrite it.
var sentinel = sim.Response{OK: true, Value: sim.TaggedValue{Value: "sentinel"}}

// runTestPhase runs one phase over a fresh phase record and returns the
// record's countdown once runPhase returned — 0 when every slot sent was
// answered exactly once (one answer too many reads −1, one too few +1) —
// with runPhase's error.
func runTestPhase(ctx context.Context, cl *Client, members []int, req sim.Request, out []sim.Response) (int32, error) {
	ph := getPhase(len(cl.addrGroup))
	err := cl.runPhase(ctx, ph, members, req, out)
	left := ph.left.Load()
	putPhase(ph)
	return left, err
}

// TestPhaseCancelLeavesSlotsAlone: a phase abandoned through its ctx
// returns ctx.Err(), and replies that arrive afterwards — read by the
// client, for ids it has withdrawn — never write the caller's slots.
func TestPhaseCancelLeavesSlotsAlone(t *testing.T) {
	hold, seen := make(chan struct{}), make(chan struct{}, 3)
	addr := fakeShard(t, func([]sim.BatchItem) {
		seen <- struct{}{}
		<-hold
	})
	reg := obs.NewRegistry()
	cl, err := Dial(map[int]string{0: addr, 1: addr, 2: addr}, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	out := make([]sim.Response, 3)
	errc := make(chan error, 1)
	go func() {
		_, err := runTestPhase(ctx, cl, []int{0, 1, 2}, sim.Request{Op: sim.OpRead}, out)
		errc <- err
	}()
	waitN(t, seen, 1, "the shard to hold the phase's first frame")
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled phase returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled phase never returned")
	}
	for k := range out {
		out[k] = sentinel
	}
	close(hold)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if v, _ := reg.Value("bqs_wire_frames_total", "side", "client", "dir", "in"); v == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the late replies never reached the client")
		}
	}
	for k, r := range out {
		if r != sentinel {
			t.Errorf("slot %d = %+v after the phase was abandoned, want it untouched", k, r)
		}
	}
}

// TestPhaseTeardownAnswersEachSlotOnce: when one shard drops its
// connection mid-phase, each of its slots answers OK: false, the other
// shard's slots carry their replies, and every slot is answered exactly
// once.
func TestPhaseTeardownAnswersEachSlotOnce(t *testing.T) {
	addrA := scriptedShard(t, func(net.Conn, uint64, []sim.BatchItem) error {
		return errors.New("drop the connection")
	})
	addrB := fakeShard(t, nil)
	cl, err := Dial(map[int]string{0: addrA, 1: addrA, 2: addrB, 3: addrB})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out := make([]sim.Response, 4)
	left, err := runTestPhase(ctx, cl, []int{0, 1, 2, 3}, sim.Request{Op: sim.OpRead}, out)
	if err != nil {
		t.Fatalf("phase over a dropped connection: %v, want answered slots", err)
	}
	if left != 0 {
		t.Fatalf("countdown after the phase = %d, want 0 (each slot answered once)", left)
	}
	for k, want := range []bool{false, false, true, true} {
		if out[k].OK != want {
			t.Errorf("slot %d OK = %v, want %v", k, out[k].OK, want)
		}
	}
}

// TestPhaseWrongEpochBounce: a shard that refuses the phase's gate answers
// its slot OK: false and reports its record to onStale once; the other
// shard's slot is served.
func TestPhaseWrongEpochBounce(t *testing.T) {
	rec := reconfig.Record{Epoch: 5, Kind: "threshold", Universe: 2}
	addrA := scriptedShard(t, func(nc net.Conn, id uint64, _ []sim.BatchItem) error {
		out, err := AppendReconfig(nil, id, ReconfigFrame{Kind: ReconfigWrongEpoch, Rec: rec})
		if err != nil {
			return err
		}
		_, err = nc.Write(out)
		return err
	})
	addrB := fakeShard(t, nil)
	var stale atomic.Int32
	cl, err := Dial(map[int]string{0: addrA, 1: addrB}, WithEpochs(func(got reconfig.Record) {
		if got != rec {
			t.Errorf("onStale got %+v, want %+v", got, rec)
		}
		stale.Add(1)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out := make([]sim.Response, 2)
	left, err := runTestPhase(ctx, cl, []int{0, 1}, sim.Request{Op: sim.OpRead}, out)
	if err != nil || left != 0 {
		t.Fatalf("phase: err=%v countdown=%d, want nil and 0", err, left)
	}
	if out[0].OK || !out[1].OK {
		t.Fatalf("slots OK = [%v %v], want [false true]", out[0].OK, out[1].OK)
	}
	if n := stale.Load(); n != 1 {
		t.Fatalf("onStale called %d times, want 1", n)
	}
}

// TestPhaseOverLoopback: one InvokePhase across two real shards writes a
// key to every member and reads it back from each, one frame per member.
func TestPhaseOverLoopback(t *testing.T) {
	regC := obs.NewRegistry()
	addrA, _ := startShard(t, newReplicas([]int{0, 1, 2}))
	addrB, _ := startShard(t, newReplicas([]int{3, 4}))
	routes := map[int]string{0: addrA, 1: addrA, 2: addrA, 3: addrB, 4: addrB}
	cl, err := Dial(routes, WithMetrics(regC))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	members := []int{4, 0, 3, 2}
	tv := sim.TaggedValue{Value: "v", TS: sim.Timestamp{Seq: 1, Writer: 1}}
	out := make([]sim.Response, len(members))
	if err := cl.InvokePhase(ctx, members, sim.Request{Op: sim.OpWrite, Key: "k", Value: tv}, out); err != nil {
		t.Fatal(err)
	}
	for k, r := range out {
		if !r.OK {
			t.Fatalf("write to server %d: %+v", members[k], r)
		}
	}
	if err := cl.InvokePhase(ctx, members, sim.Request{Op: sim.OpRead, Key: "k"}, out); err != nil {
		t.Fatal(err)
	}
	for k, r := range out {
		if !r.OK || r.Value != tv {
			t.Fatalf("read from server %d: %+v, want %+v", members[k], r, tv)
		}
	}
	if v, _ := regC.Value("bqs_wire_frames_total", "side", "client", "dir", "out"); v != 2*float64(len(members)) {
		t.Fatalf("client frames out = %v, want one per member per phase (%d)", v, 2*len(members))
	}
	// An unrouted member aborts the phase before any frame is sent.
	if err := cl.InvokePhase(ctx, []int{0, 9}, sim.Request{Op: sim.OpRead}, out[:2]); err == nil {
		t.Fatal("a phase with an unrouted member must abort with an error")
	}
	if v, _ := regC.Value("bqs_wire_frames_total", "side", "client", "dir", "out"); v != 2*float64(len(members)) {
		t.Fatalf("client frames out = %v after the aborted phase, want %d", v, 2*len(members))
	}
}

// stateShard is a stand-in for wire.Server's reconfig plane: it answers an
// install with the installed record and a query with the last record
// installed (zero before any), after calling before, so a test decides
// when a state reply comes.
func stateShard(t *testing.T, before func()) (addr string, stop func()) {
	t.Helper()
	var mu sync.Mutex
	var cur reconfig.Record
	return frameShard(t, func(nc net.Conn, frame []byte) error {
		id, f, err := DecodeReconfig(frame)
		if err != nil {
			return err
		}
		before()
		mu.Lock()
		if f.Kind == ReconfigInstall {
			cur = f.Rec
		}
		out, err := AppendReconfig(nil, id, ReconfigFrame{Kind: ReconfigState, Rec: cur})
		mu.Unlock()
		if err != nil {
			return err
		}
		_, err = nc.Write(out)
		return err
	})
}

// TestInstallAndQueryTakeOneRound: InstallEpoch and FetchConfig put their
// frame on every shard before they wait for any state reply. Each of the
// two shards answers a frame only once the other has seen its own, so a
// client that wrote to the second shard after the first one's reply —
// one round trip per shard — would never finish. CurrentRecord follows
// the installs: nothing before the first, the record once every shard
// acknowledged it, and the same record after an install that one
// unreachable shard failed.
func TestInstallAndQueryTakeOneRound(t *testing.T) {
	aSeen, bSeen, bGone := make(chan struct{}, 4), make(chan struct{}, 4), make(chan struct{})
	addrA, _ := stateShard(t, func() {
		aSeen <- struct{}{}
		select {
		case <-bSeen:
		case <-bGone:
		}
	})
	addrB, stopB := stateShard(t, func() {
		bSeen <- struct{}{}
		<-aSeen
	})
	cl, err := Dial(map[int]string{0: addrA, 1: addrB}, WithEpochs(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if got, ok := cl.CurrentRecord(); ok {
		t.Fatalf("CurrentRecord before any install = %+v, want none", got)
	}
	rec := reconfig.Record{Epoch: 3, Kind: "threshold", Universe: 2}
	if err := cl.InstallEpoch(ctx, rec); err != nil {
		t.Fatalf("InstallEpoch: %v, want both shards installed in one round trip", err)
	}
	if got, ok := cl.CurrentRecord(); !ok || got != rec {
		t.Fatalf("CurrentRecord after the install = %+v, %v, want %+v", got, ok, rec)
	}
	if got, ok, err := cl.FetchConfig(ctx); err != nil || !ok || got != rec {
		t.Fatalf("FetchConfig = %+v, %v, %v, want %+v from one round trip", got, ok, err, rec)
	}
	stopB()
	close(bGone)
	next := reconfig.Record{Epoch: 4, Kind: "threshold", Universe: 2}
	if err := cl.InstallEpoch(ctx, next); err == nil || !strings.Contains(err.Error(), addrB) {
		t.Fatalf("InstallEpoch with shard %s down = %v, want its unreachable error", addrB, err)
	}
	if got, ok := cl.CurrentRecord(); !ok || got != rec {
		t.Fatalf("CurrentRecord after the failed install = %+v, %v, want %+v unchanged", got, ok, rec)
	}
}
