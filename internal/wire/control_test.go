package wire

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"bqs/internal/sim"
)

func TestControlRoundTrip(t *testing.T) {
	for _, behavior := range []sim.Behavior{
		sim.Correct, sim.Crashed, sim.ByzantineFabricate, sim.ByzantineStale, sim.ByzantineEquivocate,
	} {
		frame, err := AppendControl(nil, 42, 7, behavior)
		if err != nil {
			t.Fatalf("%v: %v", behavior, err)
		}
		// Strip the length prefix like ReadFrame would.
		id, server, got, err := DecodeControl(frame[4:])
		if err != nil {
			t.Fatalf("%v: %v", behavior, err)
		}
		if id != 42 || server != 7 || got != behavior {
			t.Fatalf("round trip (%d, %d, %v), want (42, 7, %v)", id, server, got, behavior)
		}
	}
}

func TestControlRejectsMalformed(t *testing.T) {
	if _, err := AppendControl(nil, 1, 0, sim.Behavior(99)); err == nil {
		t.Fatal("unknown behavior encoded")
	}
	good, err := AppendControl(nil, 1, 0, sim.Crashed)
	if err != nil {
		t.Fatal(err)
	}
	payload := good[4:]
	if _, _, _, err := DecodeControl(payload[:len(payload)-1]); err == nil {
		t.Fatal("truncated control decoded")
	}
	if _, _, _, err := DecodeControl(append(append([]byte(nil), payload...), 0)); err == nil {
		t.Fatal("oversized control decoded")
	}
	bad := append([]byte(nil), payload...)
	bad[0] = tagBatchRequest
	if _, _, _, err := DecodeControl(bad); err == nil {
		t.Fatal("wrong tag decoded")
	}
	bad = append([]byte(nil), payload...)
	bad[13] = 0 // behavior byte below Correct
	if _, _, _, err := DecodeControl(bad); err == nil {
		t.Fatal("unknown behavior byte decoded")
	}
}

func FuzzDecodeControl(f *testing.F) {
	seed, err := AppendControl(nil, 99, 3, sim.ByzantineStale)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed[4:])
	f.Add([]byte{tagControl})
	f.Fuzz(func(t *testing.T, p []byte) {
		id, server, behavior, err := DecodeControl(p)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode to the identical payload.
		out, err := AppendControl(nil, id, server, behavior)
		if err != nil {
			t.Fatalf("decoded control did not re-encode: %v", err)
		}
		if string(out[4:]) != string(p) {
			t.Fatalf("re-encode mismatch: %x vs %x", out[4:], p)
		}
	})
}

// TestFlipOverLoopback drives the full remote-churn path: a control frame
// from Client.Flip must change the behavior of the replica on a live TCP
// shard, flips to recover must restore it, and flips for servers the
// shard does not host must error without killing the connection.
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

	cl, err := Dial(map[int]string{0: addr}, WithDialTimeout(200*time.Millisecond))
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
