package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"bqs"
	"bqs/internal/core"
	"bqs/internal/wire"
)

// Layer probes time one layer's public functions from outside, on a single
// goroutine with nothing else running: what a layer costs alone, beside
// what the traced workloads say it costs in place. They reach below the bqs
// facade (codec, picker) because that is where the layers' entry points
// are.

const (
	probeReps = 5
	// probeRep is the least time one repetition loops for; the median of
	// five keeps a hiccup out. A traced process runs the probes once,
	// whatever the number of workloads (18 probes × 5 × 0.3 s ≈ 27 s).
	probeRep = 300 * time.Millisecond
)

// timeLoop reports the median time and heap allocations per call of fn.
func timeLoop(fn func()) (ns, allocs float64) {
	// Size a batch to about half a millisecond so that reading the clock
	// is not part of what is measured.
	batch := 1
	for {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		if time.Since(start) > 500*time.Microsecond || batch >= 1<<20 {
			break
		}
		batch *= 2
	}
	var nss, as []float64
	var ms runtime.MemStats
	for r := 0; r < probeReps; r++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		n := 0
		start := time.Now()
		for time.Since(start) < probeRep {
			for i := 0; i < batch; i++ {
				fn()
			}
			n += batch
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms)
		nss = append(nss, float64(elapsed)/float64(n))
		as = append(as, float64(ms.Mallocs-before)/float64(n))
	}
	sort.Float64s(nss)
	sort.Float64s(as)
	return nss[probeReps/2], as[probeReps/2]
}

// runProbes returns the layer-probe metrics. dir holds the disk stores it
// opens and is left empty.
func runProbes(dir string) (map[string]float64, error) {
	m := make(map[string]float64)
	dir, err := os.MkdirTemp(dir, "bqs-bench-probes-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rng := rand.New(rand.NewSource(1))
	value := makeValue(1, 0, 1)
	tv := bqs.TaggedValue{Value: value, TS: bqs.Timestamp{Seq: 1, Writer: 0}}

	thr, err := bqs.NewMaskingThreshold(13, maskB)
	if err != nil {
		return nil, err
	}
	en, err := bqs.AsEnumerable(thr, 0)
	if err != nil {
		return nil, err
	}
	picker, err := core.NewStrategyPicker(en, bqs.UniformStrategy(len(en.Quorums())))
	if err != nil {
		return nil, err
	}
	dead := bqs.NewSet(13)
	m["core.strategy_pick_ns"], m["core.strategy_pick_allocs"] = timeLoop(func() { picker.PickQuorum(rng, dead) })
	m["systems.threshold_select_ns"], _ = timeLoop(func() { thr.SelectQuorum(rng, dead) })
	mp, err := bqs.NewMPath(10, maskB)
	if err != nil {
		return nil, err
	}
	dead100 := bqs.NewSet(100)
	ns, allocs := timeLoop(func() { mp.SelectQuorum(rng, dead100) })
	m["systems.mpath_select_us"], m["systems.mpath_select_allocs"] = ns/1e3, allocs
	ns, _ = timeLoop(func() { bqs.Load(en) })
	m["measures.load_lp_ms"] = ns / 1e6

	// A keyed probe travels as a batch frame of one, so that is the
	// "request" the codec probes encode.
	one := []bqs.BatchItem{{Server: 3, Req: bqs.Request{Op: bqs.OpWrite, Key: keyName(1), Value: tv}}}
	batch := make([]bqs.BatchItem, 32)
	for i := range batch {
		batch[i] = bqs.BatchItem{Server: i % 13, Req: bqs.Request{Op: bqs.OpWrite, Key: keyName(i), Value: tv}}
	}
	var buf []byte
	m["wire.encode_request_ns"], _ = timeLoop(func() { buf, _ = wire.AppendBatchRequest(buf[:0], 1, one) })
	frame := buf[4:] // decoders take the payload, without the length prefix
	m["wire.decode_request_ns"], _ = timeLoop(func() { wire.DecodeBatchRequest(frame) })
	var buf32 []byte
	ns, _ = timeLoop(func() { buf32, _ = wire.AppendBatchRequest(buf32[:0], 1, batch) })
	m["wire.encode_batch32_us"] = ns / 1e3
	frame32 := buf32[4:]
	ns, _ = timeLoop(func() { wire.DecodeBatchRequest(frame32) })
	m["wire.decode_batch32_us"] = ns / 1e3

	srv := bqs.NewServer(0)
	wreq := bqs.Request{Op: bqs.OpWrite, Key: keyName(1), Value: tv}
	rreq := bqs.Request{Op: bqs.OpRead, Key: keyName(1)}
	m["sim.handle_write_ns"], _ = timeLoop(func() { srv.HandleRequest(wreq) })
	m["sim.handle_read_ns"], _ = timeLoop(func() { srv.HandleRequest(rreq) })

	if m["wire.invoke_rtt_us"], m["wire.invoke_allocs"], err = probeRTT(rreq); err != nil {
		return nil, err
	}

	rec := bqs.StoreRecord{Key: keyName(1), Value: value, Seq: 1}
	mem := bqs.NewMemStore()
	m["store.mem_apply_ns"], _ = timeLoop(func() { rec.Seq++; mem.Apply(rec) })
	for _, p := range []struct {
		name  string
		fsync bool
	}{{"store.disk_apply_nosync_us", false}, {"store.disk_apply_fsync_us", true}} {
		d, err := bqs.OpenDiskStore(filepath.Join(dir, p.name), bqs.WithFsync(p.fsync))
		if err != nil {
			return nil, err
		}
		var applyErr error
		ns, _ = timeLoop(func() {
			rec.Seq++
			if err := d.Apply(rec); err != nil {
				applyErr = err
			}
		})
		if err := d.Close(); err != nil || applyErr != nil {
			return nil, fmt.Errorf("probe %s: apply %v, close %v", p.name, applyErr, err)
		}
		m[p.name] = ns / 1e3
	}
	if m["store.recovery_ms_per_10k"], err = probeRecovery(filepath.Join(dir, "recovery")); err != nil {
		return nil, err
	}
	return m, nil
}

// probeRTT times one single-probe round trip over loopback, one at a time.
func probeRTT(req bqs.Request) (us, allocs float64, err error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	ws := bqs.NewWireServer(map[int]*bqs.Server{0: bqs.NewServer(0)})
	served := make(chan error, 1)
	go func() { served <- ws.Serve(lis) }()
	defer func() {
		ws.Close()
		<-served
	}()
	wc, err := bqs.DialWire(map[int]string{0: lis.Addr().String()})
	if err != nil {
		return 0, 0, err
	}
	defer wc.Close()
	ctx := context.Background()
	var rerr error
	ns, allocs := timeLoop(func() {
		if resp, err := wc.Invoke(ctx, 0, req); err != nil || !resp.OK {
			rerr = fmt.Errorf("probe round trip: ok=%v err=%v", resp.OK, err)
		}
	})
	return ns / 1e3, allocs, rerr
}

// probeRecovery times opening a store whose log holds 10,000 records.
func probeRecovery(dir string) (ms float64, err error) {
	d, err := bqs.OpenDiskStore(dir, bqs.WithFsync(false))
	if err != nil {
		return 0, err
	}
	for i := 0; i < 10000; i++ {
		if err := d.Apply(bqs.StoreRecord{Key: keyName(i % 1000), Value: makeValue(i%1000, 0, int64(i)), Seq: int64(i + 1)}); err != nil {
			d.Close()
			return 0, err
		}
	}
	if err := d.Close(); err != nil {
		return 0, err
	}
	var times []float64
	for r := 0; r < probeReps; r++ {
		start := time.Now()
		d, err := bqs.OpenDiskStore(dir, bqs.WithFsync(false))
		elapsed := time.Since(start)
		if err != nil {
			return 0, err
		}
		if got := d.Recovered().WALRecords; got != 10000 {
			d.Close()
			return 0, fmt.Errorf("probe recovery: replayed %d records, want 10000", got)
		}
		if err := d.Close(); err != nil {
			return 0, err
		}
		times = append(times, float64(elapsed)/1e6)
	}
	sort.Float64s(times)
	return times[probeReps/2], nil
}
