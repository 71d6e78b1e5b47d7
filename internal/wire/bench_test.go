package wire

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bqs/internal/obs"
	"bqs/internal/sim"
)

// BenchmarkWireFanout is the transport layer's share of the tcp_kv
// workload, alone: 13 replicas on two loopback shards, two callers, each
// running quorum phases of ten members through InvokePhase — the call a
// sim.Cluster makes for every phase over a wire.Client, which sends each
// member's frame from the caller's goroutine and wakes it once the last
// reply is in. One op is one phase. Besides ns/op (inverse throughput
// over both callers) and allocs/op it reports the mean phase latency and,
// per direction, how many frames a socket flush carried.
func BenchmarkWireFanout(b *testing.B) {
	const servers, callers, fanout = 13, 2, 10
	regS, regC := obs.NewRegistry(), obs.NewRegistry()
	routes := make(map[int]string, servers)
	for _, ids := range [][]int{{0, 1, 2, 3, 4, 5, 6}, {7, 8, 9, 10, 11, 12}} {
		addr, _ := startShard(b, newReplicas(ids), WithServerMetrics(regS))
		for _, id := range ids {
			routes[id] = addr
		}
	}
	cl, err := Dial(routes, WithMetrics(regC))
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	var failed atomic.Int64
	phase := func(caller, i int) {
		req := sim.Request{Op: sim.OpRead, Key: fmt.Sprintf("key-%06d", i%64), ReaderID: caller}
		if i%2 == 0 {
			req.Op = sim.OpWrite
			req.Value = sim.TaggedValue{Value: "sixty-four bytes of value, more or less, as the benchmark writes", TS: sim.Timestamp{Seq: int64(i + 1), Writer: caller}}
		}
		var members [fanout]int
		for k := range members {
			members[k] = (i + k) % servers
		}
		var out [fanout]sim.Response
		if err := cl.InvokePhase(ctx, members[:], req, out[:]); err != nil {
			b.Error(err)
		}
		for _, resp := range out {
			if !resp.OK {
				failed.Add(1)
			}
		}
	}
	phase(0, 0) // dial both shards before the clock starts
	flushes := func(reg *obs.Registry, side string) *obs.Histogram {
		return reg.Histogram("bqs_wire_flush_frames", obs.SizeBuckets, "side", side)
	}
	hc, hs := flushes(regC, "client"), flushes(regS, "server")
	c0, cf0, s0, sf0 := hc.Count(), hc.Sum(), hs.Count(), hs.Sum()

	b.ReportAllocs()
	b.ResetTimer()
	var inPhases atomic.Int64 // nanoseconds spent inside phases, over all callers
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < b.N; i += callers {
				start := time.Now()
				phase(c, i)
				inPhases.Add(int64(time.Since(start)))
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if n := failed.Load(); n != 0 {
		b.Fatalf("%d probes failed", n)
	}
	b.ReportMetric(float64(inPhases.Load())/float64(b.N), "ns/phase")
	b.ReportMetric((hc.Sum()-cf0)/float64(hc.Count()-c0), "req-frames/flush")
	b.ReportMetric((hs.Sum()-sf0)/float64(hs.Count()-s0), "resp-frames/flush")
}
