package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"bqs/internal/obs"
	"bqs/internal/reconfig"
	"bqs/internal/sim"
)

// flipPayload is the payload of an ungated frame carrying one flip item.
func flipPayload(t testing.TB, id uint64, server int, behavior sim.Behavior) []byte {
	t.Helper()
	frame, err := AppendBatchRequest(nil, id, []sim.BatchItem{{Server: server, Req: sim.Request{Op: opFlip, ReaderID: int(behavior)}}})
	if err != nil {
		t.Fatal(err)
	}
	return frame[4:]
}

// TestControlRejectsMalformed pins that the fault-injection channel fails
// closed: a flip to a behavior outside the defined range is refused by
// the encoder and by the decoder, so it never reaches a replica, and a
// flip frame cut short, padded or mistagged does not decode.
func TestControlRejectsMalformed(t *testing.T) {
	for _, b := range []sim.Behavior{0, sim.Restart + 1, 99} {
		if _, err := AppendBatchRequest(nil, 1, []sim.BatchItem{
			{Server: 0, Req: sim.Request{Op: opFlip, ReaderID: int(b)}},
		}); err == nil {
			t.Errorf("accepted a flip to unknown behavior %d", b)
		}
	}
	flip := flipPayload(t, 1, 0, sim.Crashed)
	const behaviorAt = reqHeaderLen + 5 // a flip item's reader field
	cases := map[string][]byte{
		"flip-unknown-behavior": patched(flip, func(p []byte) { binary.BigEndian.PutUint64(p[behaviorAt:], 99) }),
		"flip-zero-behavior":    patched(flip, func(p []byte) { binary.BigEndian.PutUint64(p[behaviorAt:], 0) }),
		"flip-huge-behavior":    patched(flip, func(p []byte) { binary.BigEndian.PutUint64(p[behaviorAt:], 1<<32|uint64(sim.Crashed)) }),
		"flip-truncated":        flip[:len(flip)-1],
		"flip-trailing":         append(append([]byte{}, flip...), 0),
		"flip-response-tag":     patched(flip, func(p []byte) { p[0] = tagBatchResponse }),
	}
	for name, p := range cases {
		if _, _, err := DecodeBatchRequest(p); err == nil {
			t.Errorf("%s: DecodeBatchRequest accepted malformed payload", name)
		}
	}
}

// FuzzDecodeControl starts the request decoder's fuzzer from a flip frame
// and from the bare tag of the retired control frame.
func FuzzDecodeControl(f *testing.F) {
	f.Add(flipPayload(f, 99, 3, sim.ByzantineStale))
	f.Add([]byte{0x53})
	f.Fuzz(fuzzDecodeRequest)
}

// TestFlipOverLoopback drives the full remote-churn path: a flip item
// from Client.Flip must change the behavior of the replica on a live TCP
// shard, flips to recover must restore it, and flips for servers the
// shard does not host — or to behaviors that do not exist — must error
// without killing the connection.
func TestFlipOverLoopback(t *testing.T) {
	replicas := map[int]*sim.Server{0: sim.NewServer(0), 1: sim.NewServer(1), 2: sim.NewServer(2)}
	srv := NewServer(replicas)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()
	addr := lis.Addr().String()

	cl, err := Dial(map[int]string{0: addr, 1: addr, 2: addr, 3: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if err := cl.Flip(ctx, 1, sim.Crashed); err != nil {
		t.Fatalf("flip to crashed: %v", err)
	}
	if got := replicas[1].Behavior(); got != sim.Crashed {
		t.Fatalf("replica behavior = %v after remote flip", got)
	}
	// The crashed replica must answer probes with OK: false — the flip is
	// visible through the data path, not just the accessor.
	resp, err := cl.Invoke(ctx, 1, sim.Request{Op: sim.OpRead, ReaderID: 9})
	if err != nil || resp.OK {
		t.Fatalf("read from crashed replica = (%+v, %v), want OK: false", resp, err)
	}
	if err := cl.Flip(ctx, 1, sim.Correct); err != nil {
		t.Fatalf("flip to correct: %v", err)
	}
	resp, err = cl.Invoke(ctx, 1, sim.Request{Op: sim.OpRead, ReaderID: 9})
	if err != nil || !resp.OK {
		t.Fatalf("read from recovered replica = (%+v, %v), want OK: true", resp, err)
	}

	// Server 3 is routed here but not hosted: the shard answers OK: false
	// and Flip surfaces it as an error, leaving the connection usable.
	if err := cl.Flip(ctx, 3, sim.Crashed); err == nil || !strings.Contains(err.Error(), "not hosting") {
		t.Fatalf("flip of unhosted server = %v, want not-hosting error", err)
	}
	if err := cl.Flip(ctx, 4, sim.Crashed); err == nil {
		t.Fatal("flip of unrouted server succeeded")
	}
	// An undefined behavior fails at the caller and never reaches the
	// stream, which the shard would drop.
	if err := cl.Flip(ctx, 0, sim.Behavior(99)); err == nil {
		t.Fatal("flip to an unknown behavior succeeded")
	}
	if _, err := cl.Invoke(ctx, 0, sim.Request{Op: sim.OpRead}); err != nil {
		t.Fatalf("connection unusable after failed flips: %v", err)
	}

	// A cancelled context aborts instead of reporting a flip outcome.
	gone, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if err := cl.Flip(gone, 0, sim.Crashed); !errors.Is(err, context.Canceled) {
		t.Fatalf("flip with cancelled ctx = %v", err)
	}
}

// TestFlipUnreachableShard pins the miss contract: a flip whose shard is
// down must return an error promptly (so schedule drivers count a miss
// and move on), not hang or panic.
func TestFlipUnreachableShard(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close() // nothing is listening now

	cl, err := Dial(map[int]string{0: addr}, func(c *dialConfig) { c.dialTimeout = 200 * time.Millisecond })
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cl.Flip(ctx, 0, sim.Crashed); err == nil {
		t.Fatal("flip to dead address succeeded")
	}
}

// TestWireFlipIgnoresEpochGate pins that the epoch gate covers data, not
// fault injection: an epoch-aware client whose epoch is stale can still
// flip a replica (a flip travels ungated), while its next data probe on
// the same connection is still refused as wrongepoch.
func TestWireFlipIgnoresEpochGate(t *testing.T) {
	regS := obs.NewRegistry()
	reps := newReplicas([]int{0})
	addr, srv := startShard(t, reps, WithServerMetrics(regS))
	tr, err := Dial(map[int]string{0: addr}, WithEpochs(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// The shard moves to epoch 1 behind the client's back.
	srv.install(reconfig.Record{Epoch: 1, Kind: "threshold", Universe: 5, B: 1})
	if err := tr.Flip(ctx, 0, sim.Crashed); err != nil {
		t.Fatalf("flip from a stale-epoch client: %v", err)
	}
	if got := reps[0].Behavior(); got != sim.Crashed {
		t.Fatalf("replica behavior = %v after flip, want %v", got, sim.Crashed)
	}
	if err := tr.Flip(ctx, 0, sim.Correct); err != nil {
		t.Fatalf("recovering flip from a stale-epoch client: %v", err)
	}
	// The replica is correct again, so an OK: false here is the gate's.
	resp, err := tr.Invoke(ctx, 0, sim.Request{Op: sim.OpRead, ReaderID: 1})
	if err != nil || resp.OK {
		t.Fatalf("stale-epoch probe after flips: resp=%+v err=%v, want OK: false", resp, err)
	}
	if v, _ := regS.Value("bqs_wire_wrong_epoch_total", "side", "server"); v != 1 {
		t.Fatalf("server wrong-epoch count = %v, want 1 (the probe, not the flips)", v)
	}
}

// TestWireLastEpochHasNoGate pins the one epoch a gate cannot carry:
// epoch 2^64−1 would gate at 0, which means ungated, so InstallEpoch
// refuses it before any shard adopts it.
func TestWireLastEpochHasNoGate(t *testing.T) {
	addr, srv := startShard(t, newReplicas([]int{0}))
	tr, err := Dial(map[int]string{0: addr}, WithEpochs(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rec := reconfig.Record{Epoch: math.MaxUint64, Kind: "threshold", Universe: 5, B: 1}
	if err := tr.InstallEpoch(context.Background(), rec); err == nil {
		t.Fatal("InstallEpoch adopted the last epoch, whose gate would read as ungated")
	}
	if _, ok := srv.CurrentRecord(); ok || tr.epoch() != 0 {
		t.Fatalf("a refused install left state behind: shard installed=%v, client epoch %d", ok, tr.epoch())
	}
}
