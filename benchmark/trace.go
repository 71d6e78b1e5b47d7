package main

import (
	"bufio"
	"context"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync/atomic"

	"bqs"
)

// The traced run wraps the four seams the program already exposes — the
// System handed to NewCluster, the Transport of WithTransport, the Store of
// WithStore/WithStores, and the net.Listener handed to WireServer.Serve —
// with the types in this file. Counters cover every operation of the
// measured slices; spans are kept for every sampleEvery-th operation.
//
// A span finds its operation through the request it carries, not through
// the context: a Session flushes its frames under context.Background, so a
// context value set by the caller never reaches the transport, while the
// (caller, key) pair does — it is in every Request (ReaderID, or the
// writer of the timestamp) and every store Record, and the schedule keeps
// a caller from having two operations in flight on one key.

const (
	sampleEvery = 16
	// spanCap bounds the span ring; a full ring overwrites its oldest
	// entries, and operations that lost spans that way are left out.
	spanCap = 1 << 16
)

type spanKind uint8

const (
	spanRead spanKind = iota
	spanWrite
	spanSelect
	spanInvoke
	spanApply
)

var spanNames = [...]string{"op.read", "op.write", "systems.select", "sim.invoke", "store.apply"}

// span is one timed call at a seam. op is the operation's identifier: the
// ring index of its op span plus one, so every span of an operation sits
// after the op span in the ring and a surviving op span means a complete
// operation.
type span struct {
	start, end int64
	op         uint64
	server     int32
	kind       spanKind
	phase      uint8 // the bqs.Op of an invoke span
}

// layerCounts are the counters the wrappers keep while the tracer is on.
type layerCounts struct {
	ops                                      atomic.Int64
	picks, selectNs                          atomic.Int64
	probes, probeFails                       atomic.Int64
	flushes, flushItems                      atomic.Int64
	applies                                  atomic.Int64
	connReads, connWrites, bytesIn, bytesOut atomic.Int64
}

// external is a reading of the counters the program keeps itself.
type external struct {
	proc                       procSnap
	fsyncs                     int64
	walBytes                   float64
	clientFrames, serverFrames float64
}

type tracer struct {
	sp  *spec
	reg *bqs.MetricsRegistry
	clk clock
	on  atomic.Bool

	// cur[c][k] is the sampled operation caller c has in flight on key k,
	// or 0; curOp[c] the sampled operation a blocking caller is inside.
	cur   [callers][]atomic.Uint64
	curOp [callers]atomic.Uint64
	// owner maps a client's rng — the only thing SelectQuorum is handed
	// that identifies its caller — to the caller. It is learned while the
	// set-up preloads (one known caller at a time) and read-only after.
	learning      bool
	preloadCaller int
	owner         map[*rand.Rand]int

	spans    []span
	nextSpan atomic.Uint64

	layerCounts
	selectH, invokeH, applyH *hist
	before, after            external
}

func newTracer(sp *spec, keys int) *tracer {
	tr := &tracer{
		sp:       sp,
		reg:      bqs.NewMetricsRegistry(),
		learning: true,
		owner:    make(map[*rand.Rand]int),
		spans:    make([]span, spanCap),
		selectH:  newHist(),
		invokeH:  newHist(),
		applyH:   newHist(),
	}
	for c := range tr.cur {
		tr.cur[c] = make([]atomic.Uint64, keys)
	}
	return tr
}

// preloading tells the tracer which caller's client issues the next
// preload write.
func (tr *tracer) preloading(caller int) { tr.preloadCaller = caller }

func (tr *tracer) read(in *instance) external {
	e := external{proc: readProc()}
	for _, d := range in.disks {
		e.fsyncs += d.Flushes()
	}
	// The WAL counter is read in place of Disk.WALSize, which a
	// compaction resets in the middle of a run.
	e.walBytes, _ = tr.reg.Value("bqs_store_wal_bytes_total")
	e.clientFrames, _ = tr.reg.Value("bqs_wire_frames_total", "side", "client", "dir", "out")
	e.serverFrames, _ = tr.reg.Value("bqs_wire_frames_total", "side", "server", "dir", "out")
	return e
}

// preloaded ends the learning of rng owners; the callers start after it.
func (tr *tracer) preloaded() { tr.learning = false }

// start opens the measured part of a traced window.
func (tr *tracer) start(in *instance) {
	tr.before = tr.read(in)
	tr.on.Store(true)
}

func (tr *tracer) stop(in *instance) {
	tr.on.Store(false)
	tr.after = tr.read(in)
}

func (tr *tracer) record(s span) {
	i := tr.nextSpan.Add(1) - 1
	tr.spans[i%spanCap] = s
}

// begin is called by a caller as it issues an operation; it returns the
// operation's identifier when the operation is sampled and 0 otherwise.
func (tr *tracer) begin(caller int, o op, seq, start int64) uint64 {
	if tr == nil || !tr.on.Load() {
		return 0
	}
	tr.ops.Add(1)
	if seq%sampleEvery != 0 {
		return 0
	}
	kind := spanRead
	if o.write() {
		kind = spanWrite
	}
	id := tr.nextSpan.Add(1)
	tr.spans[(id-1)%spanCap] = span{start: start, op: id, server: int32(caller), kind: kind}
	tr.cur[caller][o.key()].Store(id)
	if tr.sp.window == 1 {
		tr.curOp[caller].Store(id)
	}
	return id
}

// finish closes the op span begin opened.
func (tr *tracer) finish(caller int, o op, id uint64, end int64) {
	if id == 0 {
		return
	}
	tr.cur[caller][o.key()].Store(0)
	tr.curOp[caller].Store(0)
	if s := &tr.spans[(id-1)%spanCap]; s.op == id && s.kind <= spanWrite {
		s.end = end
	}
}

// opOf finds the sampled operation a request or record belongs to.
func (tr *tracer) opOf(caller int, key string) uint64 {
	k := keyIndex(key)
	if caller < 0 || caller >= callers || k < 0 || k >= len(tr.cur[caller]) {
		return 0
	}
	return tr.cur[caller][k].Load()
}

// maskingSystem is what both workload systems are: NewCluster checks the
// masking bound, and the load bound needs c(Q).
type maskingSystem interface {
	bqs.Masking
	bqs.Parameterized
}

// tracedSystem times SelectQuorum and forwards everything else.
type tracedSystem struct {
	maskingSystem
	tr *tracer
}

type (
	quorumLister interface{ Quorums() []bqs.Set }
	enumerator   interface {
		Enumerate(limit int) (*bqs.ExplicitSystem, error)
	}
	tracedEnumerable struct {
		*tracedSystem
		quorumLister
	}
	tracedEnumerator struct {
		*tracedSystem
		enumerator
	}
)

// traceSystem wraps inner so that the wrapper lists or materializes its
// quorums exactly when inner does, in AsEnumerable's order of preference.
func traceSystem(inner maskingSystem, tr *tracer) bqs.System {
	base := &tracedSystem{inner, tr}
	switch s := inner.(type) {
	case bqs.Enumerable:
		return tracedEnumerable{base, s}
	case bqs.Enumerator:
		return tracedEnumerator{base, s}
	}
	return base
}

func (s *tracedSystem) SelectQuorum(rng *rand.Rand, dead bqs.Set) (bqs.Set, error) {
	tr := s.tr
	if tr.learning {
		if _, ok := tr.owner[rng]; !ok {
			tr.owner[rng] = tr.preloadCaller
		}
	}
	if !tr.on.Load() {
		return s.maskingSystem.SelectQuorum(rng, dead)
	}
	start := tr.clk.now()
	q, err := s.maskingSystem.SelectQuorum(rng, dead)
	end := tr.clk.now()
	tr.picks.Add(1)
	tr.selectNs.Add(end - start)
	tr.selectH.observe(end - start)
	if caller, ok := tr.owner[rng]; ok {
		if id := tr.curOp[caller].Load(); id != 0 {
			tr.record(span{start: start, end: end, op: id, server: -1, kind: spanSelect})
		}
	}
	return q, err
}

// tracedTransport times every probe. It offers the three optional
// transport interfaces whatever inner offers, answering for an inner that
// lacks one exactly as the cluster and the session do in its absence.
type tracedTransport struct {
	inner bqs.Transport
	tr    *tracer
}

var (
	_ bqs.BatchTransport = (*tracedTransport)(nil)
	_ bqs.BatchGrouper   = (*tracedTransport)(nil)
	_ frameCoster        = (*tracedTransport)(nil)
)

// frameCoster is sim.FrameCoster, which the facade does not re-export.
type frameCoster interface{ WorthBatching() bool }

func requestCaller(req bqs.Request) int {
	if req.Op == bqs.OpWrite {
		return req.Value.TS.Writer
	}
	return req.ReaderID
}

func (t *tracedTransport) probed(server int, req bqs.Request, ok bool, start, end int64) {
	tr := t.tr
	tr.probes.Add(1)
	if !ok {
		tr.probeFails.Add(1)
	}
	tr.invokeH.observe(end - start)
	if id := tr.opOf(requestCaller(req), req.Key); id != 0 {
		tr.record(span{start: start, end: end, op: id, server: int32(server), kind: spanInvoke, phase: uint8(req.Op)})
	}
}

func (t *tracedTransport) Invoke(ctx context.Context, server int, req bqs.Request) (bqs.Response, error) {
	if !t.tr.on.Load() {
		return t.inner.Invoke(ctx, server, req)
	}
	start := t.tr.clk.now()
	resp, err := t.inner.Invoke(ctx, server, req)
	t.probed(server, req, err == nil && resp.OK, start, t.tr.clk.now())
	return resp, err
}

func (t *tracedTransport) InvokeBatch(ctx context.Context, items []bqs.BatchItem) ([]bqs.Response, error) {
	start := t.tr.clk.now()
	var (
		out []bqs.Response
		err error
	)
	if bt, ok := t.inner.(bqs.BatchTransport); ok {
		out, err = bt.InvokeBatch(ctx, items)
	} else {
		out = make([]bqs.Response, len(items))
		for i, it := range items {
			if out[i], err = t.inner.Invoke(ctx, it.Server, it.Req); err != nil {
				out = nil
				break
			}
		}
	}
	if t.tr.on.Load() {
		end := t.tr.clk.now()
		t.tr.flushes.Add(1)
		t.tr.flushItems.Add(int64(len(items)))
		for i, it := range items {
			t.probed(it.Server, it.Req, err == nil && out[i].OK, start, end)
		}
	}
	return out, err
}

func (t *tracedTransport) GroupOf(server int) int {
	if g, ok := t.inner.(bqs.BatchGrouper); ok {
		return g.GroupOf(server)
	}
	return server
}

func (t *tracedTransport) WorthBatching() bool {
	if fc, ok := t.inner.(frameCoster); ok {
		return fc.WorthBatching()
	}
	return true
}

// tracedStore times Apply and forwards everything else.
type tracedStore struct {
	bqs.Store
	tr     *tracer
	server int
}

func (s *tracedStore) Apply(rec bqs.StoreRecord) error {
	tr := s.tr
	if !tr.on.Load() {
		return s.Store.Apply(rec)
	}
	start := tr.clk.now()
	err := s.Store.Apply(rec)
	end := tr.clk.now()
	tr.applies.Add(1)
	tr.applyH.observe(end - start)
	if id := tr.opOf(int(rec.Writer), rec.Key); id != 0 {
		tr.record(span{start: start, end: end, op: id, server: int32(s.server), kind: spanApply})
	}
	return err
}

// countingListener hands out connections that count the server side's
// read and write calls and bytes.
type countingListener struct {
	net.Listener
	tr *tracer
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, tr: l.tr}, nil
}

type countingConn struct {
	net.Conn
	tr *tracer
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.tr.on.Load() {
		c.tr.connReads.Add(1)
		c.tr.bytesIn.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.tr.on.Load() {
		c.tr.connWrites.Add(1)
		c.tr.bytesOut.Add(int64(n))
	}
	return n, err
}

var gcSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

// gcCPUSeconds is the CPU time the collector has used so far. Only the
// coordinator of a window calls it, so the shared sample is not contended.
func gcCPUSeconds() float64 {
	metrics.Read(gcSample)
	if gcSample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return gcSample[0].Value.Float64()
}

// placed is a span with its identifier: its position in the ring plus one
// (which, for an op span, is also the operation's identifier).
type placed struct {
	span
	id uint64
}

// opTrace is one sampled operation with the spans that survived with it.
type opTrace struct {
	op    span
	spans []placed // selects, invokes, applies; in ring order
}

// collect groups the ring's spans by operation, keeping operations whose
// op span is still in the ring (so nothing of theirs was overwritten) and
// which finished.
func (tr *tracer) collect() []opTrace {
	total := tr.nextSpan.Load()
	first := uint64(0)
	if total > spanCap {
		first = total - spanCap
	}
	byOp := make(map[uint64]*opTrace)
	var order []uint64
	for i := first; i < total; i++ {
		s := tr.spans[i%spanCap]
		if s.kind <= spanWrite {
			if s.end != 0 && s.op == i+1 {
				byOp[s.op] = &opTrace{op: s}
				order = append(order, s.op)
			}
			continue
		}
		if ot := byOp[s.op]; ot != nil {
			ot.spans = append(ot.spans, placed{s, i + 1})
		}
	}
	out := make([]opTrace, len(order))
	for i, id := range order {
		out[i] = *byOp[id]
	}
	return out
}

// covered is the length of the union of the given intervals — the part of
// an operation its children account for, however they overlap.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, hi int64
	hi = math.MinInt64
	for _, x := range iv {
		if x[0] > hi {
			sum += x[1] - x[0]
			hi = x[1]
		} else if x[1] > hi {
			sum += x[1] - hi
			hi = x[1]
		}
	}
	return sum
}

// exactQuantile is the q-quantile of a small sample, by sorting.
func exactQuantile(q float64, xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// spanStats are the per-layer numbers that come from sampled spans.
type spanStats struct {
	sampled                    int
	selfUsPerOp                float64
	stragglerUsP50             float64
	firstProbeDelayUsP50       float64
	writeUsP50, writeSelfUsP50 float64
	writeInvokeUsP50           float64
}

func summarizeSpans(ops []opTrace) spanStats {
	st := spanStats{sampled: len(ops)}
	var self, straggler, delay, wOp, wSelf, wInv []float64
	for _, ot := range ops {
		var iv [][2]int64
		firstProbe := int64(math.MaxInt64)
		phases := make(map[uint8][]float64)
		for _, s := range ot.spans {
			if s.kind != spanInvoke {
				continue
			}
			iv = append(iv, [2]int64{s.start, s.end})
			firstProbe = min(firstProbe, s.start)
			phases[s.phase] = append(phases[s.phase], float64(s.end-s.start))
		}
		if len(iv) == 0 {
			continue
		}
		dur := ot.op.end - ot.op.start
		cov := covered(iv)
		self = append(self, float64(dur-cov)/1e3)
		delay = append(delay, float64(firstProbe-ot.op.start)/1e3)
		for _, d := range phases {
			if len(d) > 1 {
				sort.Float64s(d)
				straggler = append(straggler, (d[len(d)-1]-d[len(d)/2])/1e3)
			}
		}
		if ot.op.kind == spanWrite {
			wOp = append(wOp, float64(dur)/1e3)
			wSelf = append(wSelf, float64(dur-cov)/1e3)
			wInv = append(wInv, float64(cov)/1e3)
		}
	}
	for _, v := range self {
		st.selfUsPerOp += v / float64(len(self))
	}
	st.stragglerUsP50 = exactQuantile(0.5, straggler)
	st.firstProbeDelayUsP50 = exactQuantile(0.5, delay)
	st.writeUsP50 = exactQuantile(0.5, wOp)
	st.writeSelfUsP50 = exactQuantile(0.5, wSelf)
	st.writeInvokeUsP50 = exactQuantile(0.5, wInv)
	return st
}

// perOp divides by the measured operations, 0 when there were none.
func perOp(x float64, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return x / float64(ops)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func usOf(q float64, h *hist) float64 {
	if v := quantile(q, h); !math.IsNaN(v) {
		return v / 1e3
	}
	return 0
}

// layerMetrics computes the per-layer metrics of one traced window over
// okOps successful operations. A layer the workload does not use reads 0.
func (tr *tracer) layerMetrics(okOps int64, st spanStats) map[string]float64 {
	a, b := tr.before, tr.after
	cpuNs := float64(b.proc.userNs + b.proc.sysNs - a.proc.userNs - a.proc.sysNs)
	fsyncs := float64(b.fsyncs - a.fsyncs)
	m := map[string]float64{
		"sim.client_self_us_per_op":     st.selfUsPerOp,
		"sim.picks_per_op":              perOp(float64(tr.picks.Load()), okOps),
		"sim.probes_per_op":             perOp(float64(tr.probes.Load()), okOps),
		"sim.probe_fail_frac":           ratio(float64(tr.probeFails.Load()), float64(tr.probes.Load())),
		"sim.invoke_us_p50":             usOf(0.5, tr.invokeH),
		"sim.invoke_us_p99":             usOf(0.99, tr.invokeH),
		"sim.straggler_us_p50":          st.stragglerUsP50,
		"sim.first_probe_delay_us_p50":  st.firstProbeDelayUsP50,
		"sim.batch_items_per_flush":     ratio(float64(tr.flushItems.Load()), float64(tr.flushes.Load())),
		"systems.select_us_p50":         usOf(0.5, tr.selectH),
		"systems.select_us_per_op":      perOp(float64(tr.selectNs.Load())/1e3, okOps),
		"wire.server_writes_per_op":     perOp(float64(tr.connWrites.Load()), okOps),
		"wire.server_reads_per_op":      perOp(float64(tr.connReads.Load()), okOps),
		"wire.server_bytes_out_per_op":  perOp(float64(tr.bytesOut.Load()), okOps),
		"wire.server_bytes_in_per_op":   perOp(float64(tr.bytesIn.Load()), okOps),
		"wire.frames_per_op":            perOp(b.clientFrames-a.clientFrames, okOps),
		"wire.frames_per_write_syscall": ratio(b.serverFrames-a.serverFrames, float64(tr.connWrites.Load())),
		"store.apply_us_p50":            usOf(0.5, tr.applyH),
		"store.apply_us_p99":            usOf(0.99, tr.applyH),
		"store.applies_per_op":          perOp(float64(tr.applies.Load()), okOps),
		"store.fsyncs_per_op":           perOp(fsyncs, okOps),
		"store.records_per_fsync":       ratio(float64(tr.applies.Load()), fsyncs),
		"store.wal_bytes_per_op":        perOp(b.walBytes-a.walBytes, okOps),
		"proc.gc_cpu_frac":              ratio((b.proc.gcCPUSec-a.proc.gcCPUSec)*1e9, cpuNs),
		"proc.gc_cycles_per_kop":        perOp(float64(b.proc.gcCycles-a.proc.gcCycles)*1e3, okOps),
		"proc.alloc_kb_per_op":          perOp(float64(b.proc.allocBytes-a.proc.allocBytes)/1024, okOps),
		"proc.sys_cpu_frac":             ratio(float64(b.proc.sysNs-a.proc.sysNs), cpuNs),
		"proc.peak_rss_mb":              float64(b.proc.maxRSSKB) / 1024,
	}
	if !tr.sp.durable {
		// Mem has no log: its Apply count is not a records-per-fsync.
		m["store.records_per_fsync"] = 0
	}
	return m
}

// writeSpans writes the sampled operations as JSON lines, one span per
// line, children after their operation. An apply span's parent is the
// invoke span of the same operation and server that encloses it in time
// (the client's probe that caused the write), and the op span otherwise.
func writeSpans(path string, ops []opTrace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	emit := func(id, parent uint64, s span) {
		line = append(line[:0], `{"op":`...)
		line = strconv.AppendUint(line, s.op, 10)
		line = append(line, `,"span":`...)
		line = strconv.AppendUint(line, id, 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendUint(line, parent, 10)
		line = append(line, `,"name":"`...)
		line = append(line, spanNames[s.kind]...)
		line = append(line, '"')
		if s.kind == spanInvoke {
			line = append(line, `,"phase":"`...)
			line = append(line, bqs.Op(s.phase).String()...)
			line = append(line, '"')
		}
		if s.kind <= spanWrite {
			line = append(line, `,"caller":`...)
		} else {
			line = append(line, `,"server":`...)
		}
		line = strconv.AppendInt(line, int64(s.server), 10)
		line = append(line, `,"start_us":`...)
		line = strconv.AppendFloat(line, float64(s.start)/1e3, 'f', 3, 64)
		line = append(line, `,"end_us":`...)
		line = strconv.AppendFloat(line, float64(s.end)/1e3, 'f', 3, 64)
		line = append(line, "}\n"...)
		w.Write(line)
	}
	for _, ot := range ops {
		emit(ot.op.op, 0, ot.op)
		for _, s := range ot.spans {
			parent := ot.op.op
			if s.kind == spanApply {
				for _, p := range ot.spans {
					if p.kind == spanInvoke && p.server == s.server && p.start <= s.start && s.end <= p.end {
						parent = p.id
						break
					}
				}
			}
			emit(s.id, parent, s.span)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
