package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"

	"bqs"
)

// sliceStats is what one caller records about one slice. The histograms
// are allocated at set-up; a failed operation enters none of them.
type sliceStats struct {
	reads, writes *hist
	attempted     int64
	failed        int64
}

func (s *sliceStats) ok() int64 { return s.attempted - s.failed }

// procSnap is a reading of the process-wide counters at a slice boundary.
type procSnap struct {
	userNs, sysNs int64
	mallocs       uint64
	allocBytes    uint64
	gcCycles      uint32
	gcCPUSec      float64 // from runtime/metrics
	maxRSSKB      int64
}

func readProc() procSnap {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		userNs:     ru.Utime.Nano(),
		sysNs:      ru.Stime.Nano(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcCPUSec:   gcCPUSeconds(),
		maxRSSKB:   ru.Maxrss,
	}
}

// window is the result of driving one instance for a warm-up slice plus a
// number of measured slices.
type window struct {
	// stats[c][s] is caller c's record of slice s; slice 0 is the warm-up
	// and is never reported.
	stats [callers][]sliceStats
	// elapsed[s] is how long slice s ran, from its start to the completion
	// of its last operation; procStart[s] and procEnd[s] are the process
	// counters at those two moments.
	elapsed            []time.Duration
	procStart, procEnd []procSnap
	// hostSpeed holds the readings taken before every slice and after the
	// last one (see calib.go).
	hostSpeed []float64
	peakLoad  float64
	ck        *checker
}

// clock returns nanoseconds since the window's base time.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// drive runs the instance's callers over their schedules for one warm-up
// slice and then slices measured ones. In a slice the callers issue
// operations for sliceLen and then finish what they have in flight; every
// operation issued is counted, and the slice's rates are over the time to
// its last completion. Between slices the callers are idle, which is when
// the host's speed is read (see hostSpeed).
func drive(ctx context.Context, in *instance, sched [callers][]op, slices int, sliceLen time.Duration, tr *tracer) *window {
	w := &window{
		ck:        newChecker(sched, len(in.keys)),
		elapsed:   make([]time.Duration, slices+1),
		procStart: make([]procSnap, slices+1),
		procEnd:   make([]procSnap, slices+1),
		hostSpeed: make([]float64, 0, slices+2),
	}
	clk := clock{base: time.Now()}
	if tr != nil {
		tr.clk = clk
	}
	var cls [callers]*caller
	for c := range cls {
		w.stats[c] = make([]sliceStats, slices+1)
		for s := range w.stats[c] {
			w.stats[c][s] = sliceStats{reads: newHist(), writes: newHist()}
		}
		cls[c] = &caller{id: c, in: in, sched: sched[c], ck: w.ck, clk: clk, tr: tr, ring: make([]pending, in.sp.window)}
	}
	runtime.GC() // every window starts from a collected heap

	for s := 0; s <= slices; s++ {
		w.hostSpeed = append(w.hostSpeed, hostSpeed())
		if s == 1 {
			// Load and layer counters cover the measured slices only.
			in.cluster.ResetLoadProfile()
			if tr != nil {
				tr.start(in)
			}
		}
		w.procStart[s] = readProc()
		begin := clk.now()
		var wg sync.WaitGroup
		for _, cl := range cls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl.runSlice(ctx, &w.stats[cl.id][s], begin+int64(sliceLen))
			}()
		}
		wg.Wait()
		w.elapsed[s] = time.Duration(clk.now() - begin)
		w.procEnd[s] = readProc()
	}
	w.hostSpeed = append(w.hostSpeed, hostSpeed())
	w.peakLoad = in.cluster.PeakLoad()
	if tr != nil {
		tr.stop(in)
	}
	return w
}

// caller is one closed-loop application thread; it lives across slices.
type caller struct {
	id    int
	in    *instance
	sched []op
	ck    *checker
	clk   clock
	tr    *tracer
	seq   int64     // operations issued so far
	ring  []pending // the futures of a windowed caller
}

// pending is one slot of a windowed caller's ring of futures.
type pending struct {
	o       op
	seq     int64
	start   int64
	sampled uint64
	rf      *bqs.ReadFuture
	wf      *bqs.WriteFuture
}

// done files one completed operation.
func (cl *caller) done(st *sliceStats, p *pending, value string, err error) {
	end := cl.clk.now()
	cl.tr.finish(cl.id, p.o, p.sampled, end)
	st.attempted++
	switch {
	case err != nil:
		st.failed++
	case p.o.write():
		st.writes.observe(end - p.start)
		cl.ck.wrote(cl.id, p.o.key(), p.seq, p.start, end)
	default:
		st.reads.observe(end - p.start)
		cl.ck.read(cl.id, p.o.key(), value, p.start)
	}
}

// collect waits for the future in the slot, if there is one, and files it.
func (cl *caller) collect(st *sliceStats, p *pending) {
	switch {
	case p.wf != nil:
		cl.done(st, p, "", p.wf.Wait())
	case p.rf != nil:
		tv, err := p.rf.Wait()
		cl.done(st, p, tv.Value, err)
	}
	p.rf, p.wf = nil, nil
}

// runSlice issues operations until the clock passes end and returns once
// all of them have completed. With a window of 1 that is the blocking
// path: one WriteKey or ReadKey at a time. With a larger window the caller
// keeps that many operations in flight through its Session and consumes
// their results in issue order, as a pipelining application does; an
// operation's latency then runs from its issue to the moment the caller
// has its result in hand.
func (cl *caller) runSlice(ctx context.Context, st *sliceStats, end int64) {
	client, sess := cl.in.clients[cl.id], cl.in.sessions[cl.id]
	i := 0
	for ; cl.clk.now() < end; i++ {
		p := &cl.ring[i%len(cl.ring)]
		cl.collect(st, p)
		p.o, p.seq = cl.sched[cl.seq%int64(len(cl.sched))], cl.seq
		cl.seq++
		cl.ck.issued[cl.id].Store(cl.seq)
		key := cl.in.keys[p.o.key()]
		p.start = cl.clk.now()
		p.sampled = cl.tr.begin(cl.id, p.o, p.seq, p.start)
		switch {
		case sess != nil && p.o.write():
			p.wf = sess.WriteAsync(ctx, key, makeValue(p.o.key(), cl.id, p.seq))
		case sess != nil:
			p.rf = sess.ReadAsync(ctx, key)
		case p.o.write():
			cl.done(st, p, "", client.WriteKey(ctx, key, makeValue(p.o.key(), cl.id, p.seq)))
		default:
			tv, err := client.ReadKey(ctx, key)
			cl.done(st, p, tv.Value, err)
		}
	}
	for j := range cl.ring {
		cl.collect(st, &cl.ring[(i+j)%len(cl.ring)])
	}
}

// result holds one workload's end-to-end metrics, by name.
type result struct {
	attempted, failed int64
	violations        int64
	violation         string
	values            map[string]float64
	// unscaled holds the timed metrics before scaling to the reference host
	// speed, sliceOps the unscaled per-slice throughput and speeds the
	// per-slice speed factors.
	unscaled         map[string]float64
	sliceOps, speeds []float64
}

// summarize turns a window into the end-to-end metrics: every timed one
// is the median over the measured slices of the per-slice value, because a
// single 2 s reading spread 32k–45k ops/s in the prototype while slice
// medians of six runs stayed within 3.7 %. Each slice's timed values are
// first scaled by the host's speed around that slice (see calib.go).
func (w *window) summarize(in *instance) *result {
	slices := len(w.stats[0]) - 1
	r := &result{values: make(map[string]float64), unscaled: make(map[string]float64)}
	// timed[name] collects the per-slice unscaled values of a timed metric;
	// a throughput is divided by the slice's speed factor, a time multiplied.
	timed := make(map[string][]float64)
	var allocs []float64
	for s := 1; s <= slices; s++ {
		var ok int64
		var hs, rs, ws []*hist
		for c := 0; c < callers; c++ {
			st := &w.stats[c][s]
			r.attempted += st.attempted
			r.failed += st.failed
			ok += st.ok()
			rs, ws = append(rs, st.reads), append(ws, st.writes)
			hs = append(hs, st.reads, st.writes)
		}
		a, b := w.procStart[s], w.procEnd[s]
		r.speeds = append(r.speeds, speedFactor(w.hostSpeed[s], w.hostSpeed[s+1]))
		timed["ops_per_s"] = append(timed["ops_per_s"], float64(ok)/w.elapsed[s].Seconds())
		timed["write_p50_ms"] = append(timed["write_p50_ms"], quantile(0.5, ws...)/1e6)
		timed["read_p50_ms"] = append(timed["read_p50_ms"], quantile(0.5, rs...)/1e6)
		timed["p99_ms"] = append(timed["p99_ms"], quantile(0.99, hs...)/1e6)
		timed["cpu_ms_per_op"] = append(timed["cpu_ms_per_op"], float64(b.userNs+b.sysNs-a.userNs-a.sysNs)/1e6/float64(ok))
		allocs = append(allocs, float64(b.mallocs-a.mallocs)/float64(ok))
	}
	r.sliceOps = timed["ops_per_s"]
	for name, raw := range timed {
		scaled := make([]float64, len(raw))
		for s, v := range raw {
			if name == "ops_per_s" {
				scaled[s] = v / r.speeds[s]
			} else {
				scaled[s] = v * r.speeds[s]
			}
		}
		r.unscaled[name], r.values[name] = median(raw), median(scaled)
	}
	r.values["allocs_per_op"] = median(allocs)
	r.values["peak_load_ratio"] = w.peakLoad / bqs.LoadLowerBound(in.n, maskB, in.minQ)
	r.violations = w.ck.violations.Load()
	if msg := w.ck.firstMsg.Load(); msg != nil {
		r.violation = *msg
	}
	return r
}

// headTailGap compares the median throughput of the first three measured
// slices with that of the last three: a generator whose heap grows shows
// up as a climb inside the run.
func headTailGap(ops []float64) float64 {
	if len(ops) < 6 {
		return math.NaN()
	}
	head, tail := median(ops[:3]), median(ops[len(ops)-3:])
	return math.Abs(tail-head) / head
}

func (r *result) String() string {
	return fmt.Sprintf("attempted=%d failed=%d violations=%d", r.attempted, r.failed, r.violations)
}

// unscaledNote prints the timed metrics as the clock read them, before
// scaling to the reference host speed.
func (r *result) unscaledNote() string {
	s := "unscaled"
	for _, d := range endToEnd {
		if v, ok := r.unscaled[d.name]; ok {
			s += fmt.Sprintf(" %s=%.6g", d.name, v)
		}
	}
	return s
}
