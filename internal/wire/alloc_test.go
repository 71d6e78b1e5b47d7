//go:build !race

// The allocation pins live behind !race: the race detector charges
// bookkeeping allocations to the measured function.

package wire

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"bqs/internal/sim"
	"bqs/internal/store"
)

// TestInvokeRoundTripAllocs pins the diet of a lone probe: a loopback
// Client.Invoke — client encode, server decode and answer on its read
// loop, client decode into the phase slot, both processes' worth in this
// one. AllocsPerRun counts process-wide, so the server's share is
// included. Each row cycles through its requests, one per run.
//
// Repeating one key and one value, a write and a read each allocate
// nothing: both read loops hand the repeated bytes their last decoded
// string (see reuse). Alternating two keys and two values misses every
// time, and a round trip allocates 2 on average — the server's key and
// value for a write, the server's key and the client's value for a read.
func TestInvokeRoundTripAllocs(t *testing.T) {
	addr, _ := startShard(t, newReplicas([]int{0}))
	cl, err := Dial(map[int]string{0: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	write := func(key, value string) sim.Request {
		return sim.Request{Op: sim.OpWrite, Key: key, Value: sim.TaggedValue{Value: value, TS: sim.Timestamp{Seq: 1, Writer: 1}}}
	}
	read := func(key string) sim.Request { return sim.Request{Op: sim.OpRead, Key: key} }
	const value1 = "sixty-four bytes of value, more or less, as the benchmark writes"
	const value2 = "sixty-four bytes of value, more or less, as the benchmark writes!"
	for _, row := range []struct {
		name string
		reqs []sim.Request
		max  float64
	}{
		{"repeated key", []sim.Request{write("key-000001", value1), read("key-000001")}, 0},
		{"alternating keys", []sim.Request{write("key-000001", value1), write("key-000002", value2), read("key-000001"), read("key-000002")}, 2},
	} {
		i := 0
		invoke := func() {
			req := row.reqs[i%len(row.reqs)]
			i++
			req.Value.TS.Seq = int64(i)
			if resp, err := cl.Invoke(ctx, 0, req); err != nil || !resp.OK {
				t.Fatalf("%s: resp=%+v err=%v", row.name, resp, err)
			}
		}
		for range row.reqs {
			invoke() // store every key before the count starts
		}
		got := testing.AllocsPerRun(400, invoke)
		t.Logf("%s round trip: %v allocs", row.name, got)
		if got > row.max {
			t.Errorf("%s round trip allocates %v times, want ≤ %v", row.name, got, row.max)
		}
	}
}

// TestDurableFrameAllocs pins what serving a 16-item write frame costs
// on a shard over a store.Disk (fsync off, so the flusher neither yields
// nor fsyncs: the count is the code's, not the device's). The shard stages all sixteen writes and
// waits once for the group commit that carries them — no goroutine and no
// channel per item. What is left: the reply and commit slices, one Commit
// and its channel, the WAL batch growing to hold the frame, and the
// flusher started for it.
func TestDurableFrameAllocs(t *testing.T) {
	d, err := store.Open(t.TempDir(), store.WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := NewServer(map[int]*sim.Server{0: sim.NewServer(0, sim.WithStore(d))})
	const value = "sixty-four bytes of value, more or less, as the benchmark writes"
	items := make([]sim.BatchItem, 16)
	for i := range items {
		items[i] = sim.BatchItem{Server: 0, Req: sim.Request{Op: sim.OpWrite, Key: fmt.Sprintf("key-%06d", i),
			Value: sim.TaggedValue{Value: value, TS: sim.Timestamp{Writer: 1}}}}
	}
	serve := func() {
		for i := range items {
			items[i].Req.Value.TS.Seq++
		}
		resps := make([]sim.Response, len(items))
		awaitCommits(resps, srv.stageItems(items, resps))
		for i, resp := range resps {
			if !resp.OK {
				t.Fatalf("item %d: NACK", i)
			}
		}
	}
	serve() // store every key before the count starts
	const want = 5
	got := testing.AllocsPerRun(200, serve)
	t.Logf("16-item durable write frame: %v allocs", got)
	if got > want {
		t.Errorf("a 16-item durable write frame allocates %v times, want ≤ %v", got, want)
	}
}

// TestHostileCountAllocatesLittle sends each decoder a bare header that
// claims MaxBatchOps items and carries none. The decoders must refuse it
// before they size their output for the claim: growing a []sim.BatchItem
// for 1,024 items would cost 72 KiB for 19 bytes of input.
func TestHostileCountAllocatesLittle(t *testing.T) {
	req := make([]byte, reqHeaderLen)
	req[0] = tagBatchRequest
	binary.BigEndian.PutUint16(req[17:], MaxBatchOps)
	resp := make([]byte, batchHeaderLen)
	resp[0] = tagBatchResponse
	binary.BigEndian.PutUint16(resp[9:], MaxBatchOps)
	for name, decode := range map[string]func() error{
		"request": func() error {
			_, _, _, err := decodeBatchRequest(req, nil, nil)
			return err
		},
		"response": func() error {
			_, _, err := decodeBatchResponse(resp, nil, nil)
			return err
		},
	} {
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if decode() == nil {
				t.Fatalf("%s: accepted a header promising %d items with no payload", name, MaxBatchOps)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
			t.Errorf("%s: rejecting a hostile header allocated %d B, want < 1 KiB", name, per)
		}
	}
}
