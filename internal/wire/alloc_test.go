//go:build !race

// The allocation pin lives behind !race: the race detector charges
// bookkeeping allocations to the measured function.

package wire

import (
	"context"
	"testing"

	"bqs/internal/sim"
)

// TestInvokeRoundTripAllocs pins the diet of a lone probe: a loopback
// Client.Invoke — client encode, server decode and answer on its read
// loop, client decode into the phase slot, both processes' worth in this
// one — allocates at most 3 times, read or write: what remains is the key
// and value strings the decoders must copy out of their frame buffers.
// AllocsPerRun counts process-wide, so the server's share is included.
func TestInvokeRoundTripAllocs(t *testing.T) {
	addr, _ := startShard(t, newReplicas([]int{0}))
	cl, err := Dial(map[int]string{0: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	write := sim.Request{Op: sim.OpWrite, Key: "key-000001", Value: sim.TaggedValue{Value: "sixty-four bytes of value, more or less, as the benchmark writes", TS: sim.Timestamp{Seq: 1, Writer: 1}}}
	read := sim.Request{Op: sim.OpRead, Key: "key-000001"}
	for name, req := range map[string]sim.Request{"write": write, "read": read} {
		got := testing.AllocsPerRun(500, func() {
			req.Value.TS.Seq++
			if resp, err := cl.Invoke(ctx, 0, req); err != nil || !resp.OK {
				t.Fatalf("%s: resp=%+v err=%v", name, resp, err)
			}
		})
		t.Logf("%s round trip: %v allocs", name, got)
		if got > 8 {
			t.Errorf("%s round trip allocates %v times, want ≤ 8", name, got)
		}
	}
}
