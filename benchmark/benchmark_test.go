package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"bqs"
)

// None of these tests times throughput: they check the arithmetic the
// numbers go through and that every workload runs and checks out.

func TestHistQuantilesWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := newHist()
	xs := make([]float64, 200000)
	for i := range xs {
		// Log-normal around 50 µs with a long tail, like an op latency.
		ns := math.Exp(rng.NormFloat64()*0.8 + math.Log(50e3))
		xs[i] = math.Floor(ns)
		h.observe(int64(xs[i]))
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		exact := xs[int(q*float64(len(xs)))]
		got := quantile(q, h)
		if rel := math.Abs(got-exact) / exact; rel > 0.01 {
			t.Errorf("q=%g: histogram %.1f vs exact %.1f (%.2f%% off)", q, got, exact, rel*100)
		}
	}
	if !math.IsNaN(quantile(0.5, newHist())) {
		t.Error("empty histogram must have no quantile")
	}
}

func TestHistBucketsAreNarrowAndRoundTrip(t *testing.T) {
	for _, ns := range []int64{0, 1, 127, 128, 129, 1000, 65535, 65536, 1e6, 123456789, 1e12} {
		i := bucketOf(ns)
		lo, hi := bucketBounds(i)
		if float64(ns) < lo || float64(ns) >= hi {
			t.Errorf("%d ns landed in bucket %d = [%g,%g)", ns, i, lo, hi)
		}
		if lo >= histSub && (hi-lo)/lo > 0.01 {
			t.Errorf("bucket %d = [%g,%g) is wider than 1%%", i, lo, hi)
		}
	}
	if got := bucketOf(math.MaxInt64); got != histBuckets-1 {
		t.Errorf("huge value in bucket %d, want the last (%d)", got, histBuckets-1)
	}
}

func TestSliceMedian(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, nan, 1, nan, 3}, 3},
		{[]float64{7}, 7},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median([]float64{nan})) || !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
	if gap := headTailGap([]float64{100, 100, 100, 5, 120, 120, 120}); math.Abs(gap-0.2) > 1e-9 {
		t.Errorf("headTailGap = %g, want 0.2", gap)
	}
}

// TestHostSpeed checks that the calibration kernel reads something and the
// arithmetic that turns two readings into a slice's factor.
func TestHostSpeed(t *testing.T) {
	if v := hostSpeed(); !(v > 0) || math.IsInf(v, 0) {
		t.Errorf("hostSpeed() = %g, want a positive finite number of round trips per second", v)
	}
	if f := speedFactor(hostSpeedRef/2, hostSpeedRef); f != 0.75 {
		t.Errorf("speedFactor(ref/2, ref) = %g, want 0.75", f)
	}
}

func TestSelfTimeIsOpMinusUnionOfChildren(t *testing.T) {
	if got := covered([][2]int64{{10, 20}, {15, 30}, {40, 50}, {41, 42}, {50, 55}}); got != 35 {
		t.Errorf("covered = %d, want 35 (10–30 and 40–55)", got)
	}
	if got := covered(nil); got != 0 {
		t.Errorf("covered(nil) = %d", got)
	}
	inv := func(start, end int64, phase bqs.Op) placed {
		return placed{span: span{start: start, end: end, op: 1, kind: spanInvoke, phase: uint8(phase)}}
	}
	// A write from 0 to 100 µs: a timestamp phase of three overlapping
	// probes covering 10–40, a write phase covering 60–90.
	ot := opTrace{
		op: span{start: 0, end: 100e3, op: 1, kind: spanWrite},
		spans: []placed{
			inv(10e3, 30e3, bqs.OpReadTimestamps), inv(12e3, 40e3, bqs.OpReadTimestamps), inv(15e3, 25e3, bqs.OpReadTimestamps),
			{span: span{start: 45e3, end: 50e3, op: 1, kind: spanSelect}},
			inv(60e3, 90e3, bqs.OpWrite), inv(61e3, 70e3, bqs.OpWrite),
		},
	}
	st := summarizeSpans([]opTrace{ot})
	if st.selfUsPerOp != 40 {
		t.Errorf("self = %g µs, want 40 (100 − 30 − 30)", st.selfUsPerOp)
	}
	if st.firstProbeDelayUsP50 != 10 {
		t.Errorf("first probe delay = %g µs, want 10", st.firstProbeDelayUsP50)
	}
	if st.writeUsP50 != 100 || st.writeSelfUsP50+st.writeInvokeUsP50 != 100 {
		t.Errorf("write budget %g = %g + %g does not add up", st.writeUsP50, st.writeSelfUsP50, st.writeInvokeUsP50)
	}
	// Stragglers: phase one durations 20, 28, 10 → 28 − 20 = 8; phase two
	// 30, 9 → 30 − 30 = 0 (the upper median of two); p50 picks the upper.
	if st.stragglerUsP50 != 8 {
		t.Errorf("straggler p50 = %g µs, want 8", st.stragglerUsP50)
	}
}

func TestScheduleComesFromTheSeedAlone(t *testing.T) {
	for _, sp := range specs {
		a := genSchedule(5, 0, 1<<15, sp.keys, sp.writeShare, sp.window)
		if b := genSchedule(5, 0, 1<<15, sp.keys, sp.writeShare, sp.window); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave two schedules", sp.name)
		}
		if b := genSchedule(6, 0, 1<<15, sp.keys, sp.writeShare, sp.window); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 5 and 6 gave one schedule", sp.name)
		}
		if b := genSchedule(5, 1, 1<<15, sp.keys, sp.writeShare, sp.window); reflect.DeepEqual(a, b) {
			t.Errorf("%s: both callers got one schedule", sp.name)
		}
		writes := 0
		for i, o := range a {
			if o.write() {
				writes++
			}
			if o.key() < 0 || o.key() >= sp.keys {
				t.Fatalf("%s: key %d out of range", sp.name, o.key())
			}
			for j := 1; j < sp.window; j++ {
				if a[(i+j)%len(a)].key() == o.key() {
					t.Fatalf("%s: key %d repeats %d operations after position %d, inside the window of %d", sp.name, o.key(), j, i, sp.window)
				}
			}
		}
		if share := float64(writes) / float64(len(a)); math.Abs(share-sp.writeShare) > 0.01 {
			t.Errorf("%s: write share %.4f, want %.2f ± 0.01", sp.name, share, sp.writeShare)
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	for _, c := range []struct {
		key, caller int
		seq         int64
	}{{0, 0, preloadSeq}, {16383, 1, 0}, {42, 1, 987654321}} {
		v := makeValue(c.key, c.caller, c.seq)
		if len(v) != valueLen {
			t.Fatalf("value of %d bytes, want %d", len(v), valueLen)
		}
		k, cl, s, ok := parseValue(v)
		if !ok || k != c.key || cl != c.caller || s != c.seq {
			t.Errorf("parseValue(makeValue(%v)) = %d %d %d %v", c, k, cl, s, ok)
		}
	}
	for _, bad := range []string{"", bqs.FabricatedValue, makeValue(1, 0, 1)[:63] + "!!", "x" + makeValue(1, 0, 1)[1:]} {
		if _, _, _, ok := parseValue(bad); ok {
			t.Errorf("parseValue(%q) accepted", bad)
		}
	}
	if keyIndex(keyName(4095)) != 4095 || keyIndex("") != -1 || keyIndex("k12345x") != -1 {
		t.Error("keyIndex does not invert keyName")
	}
}

// TestCheckerRules drives the checker with hand-made histories: caller 0
// writes key 3 at positions 0 and 2, caller 1 at position 1.
func TestCheckerRules(t *testing.T) {
	const key = 3
	w, r := op(key<<1|1), op(key<<1)
	sched := [callers][]op{{w, r, w, r}, {r, w, r, r}}
	fresh := func() *checker {
		ck := newChecker(sched, 8)
		ck.issued[0].Store(4)
		ck.issued[1].Store(4)
		return ck
	}
	preload := makeValue(key, key%callers, preloadSeq)
	cases := []struct {
		name string
		play func(ck *checker)
		bad  bool
	}{
		{"preload value before any write", func(ck *checker) { ck.read(0, key, preload, 10) }, false},
		{"own acknowledged write", func(ck *checker) {
			ck.wrote(0, key, 0, 10, 20)
			ck.read(0, key, makeValue(key, 0, 0), 30)
		}, false},
		{"other caller's concurrent write", func(ck *checker) {
			ck.wrote(0, key, 0, 10, 20)
			ck.read(0, key, makeValue(key, 1, 1), 30)
		}, false},
		{"unparseable", func(ck *checker) { ck.read(0, key, bqs.FabricatedValue, 10) }, true},
		{"value of another key", func(ck *checker) { ck.read(0, key, makeValue(key+1, 0, 0), 10) }, true},
		{"sequence number that is a read in the schedule", func(ck *checker) { ck.read(0, key, makeValue(key, 0, 1), 10) }, true},
		{"write not issued yet", func(ck *checker) {
			ck.issued[0].Store(1)
			ck.read(1, key, makeValue(key, 0, 2), 10)
		}, true},
		{"preload after the preloader's own acknowledged write", func(ck *checker) {
			ck.wrote(1, key, 1, 10, 20)
			ck.read(0, key, preload, 30)
		}, true},
		{"older own value after a newer one was acknowledged", func(ck *checker) {
			ck.wrote(0, key, 0, 10, 20)
			ck.wrote(0, key, 2, 30, 40)
			ck.read(1, key, makeValue(key, 0, 0), 50)
		}, true},
		{"older value while the newer write is still unacknowledged at read start", func(ck *checker) {
			ck.wrote(0, key, 0, 10, 20)
			ck.wrote(0, key, 2, 30, 60)
			ck.read(1, key, makeValue(key, 0, 0), 50)
		}, false},
		{"foreign write acknowledged before the reader's own write began", func(ck *checker) {
			ck.wrote(1, key, 1, 10, 20)
			ck.wrote(0, key, 2, 30, 40)
			ck.read(0, key, makeValue(key, 1, 1), 50)
		}, true},
	}
	for _, c := range cases {
		ck := fresh()
		c.play(ck)
		if got := ck.violations.Load() > 0; got != c.bad {
			msg := ""
			if p := ck.firstMsg.Load(); p != nil {
				msg = *p
			}
			t.Errorf("%s: violation=%v, want %v (%s)", c.name, got, c.bad, msg)
		}
	}
}

// plainTransport offers none of the optional transport interfaces.
type plainTransport struct{ calls int }

func (p *plainTransport) Invoke(ctx context.Context, server int, req bqs.Request) (bqs.Response, error) {
	p.calls++
	return bqs.Response{OK: server != 2}, nil
}

func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	tr := newTracer(&specs[0], 8)
	thr, err := bqs.NewMaskingThreshold(13, maskB)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := bqs.NewMPath(10, maskB)
	if err != nil {
		t.Fatal(err)
	}
	for _, inner := range []maskingSystem{thr, mp} {
		w := traceSystem(inner, tr)
		if _, ok := w.(bqs.Masking); !ok {
			t.Errorf("%s: wrapper is not Masking", inner.Name())
		}
		if p, ok := w.(bqs.Parameterized); !ok || p.MinQuorumSize() != inner.MinQuorumSize() {
			t.Errorf("%s: wrapper does not forward Parameterized", inner.Name())
		}
		_, innerEnum := bqs.System(inner).(bqs.Enumerator)
		_, wrapEnum := w.(bqs.Enumerator)
		_, innerList := bqs.System(inner).(bqs.Enumerable)
		_, wrapList := w.(bqs.Enumerable)
		if innerEnum != wrapEnum || innerList != wrapList {
			t.Errorf("%s: Enumerator %v→%v, Enumerable %v→%v", inner.Name(), innerEnum, wrapEnum, innerList, wrapList)
		}
		if w.Name() != inner.Name() || w.UniverseSize() != inner.UniverseSize() {
			t.Errorf("%s: wrapper changes name or size", inner.Name())
		}
		if _, err := bqs.NewCluster(w, maskB); err != nil {
			t.Errorf("%s: NewCluster refuses the wrapper: %v", inner.Name(), err)
		}
		_, errInner := bqs.AsEnumerable(inner, 0)
		_, errWrap := bqs.AsEnumerable(w, 0)
		if (errInner == nil) != (errWrap == nil) {
			t.Errorf("%s: AsEnumerable %v on the system, %v on the wrapper", inner.Name(), errInner, errWrap)
		}
	}
	explicit, err := bqs.AsEnumerable(thr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ex, ok := explicit.(maskingSystem); ok {
		if _, ok := traceSystem(ex, tr).(bqs.Enumerable); !ok {
			t.Error("wrapper of an Enumerable system is not Enumerable")
		}
	}

	servers := []*bqs.Server{bqs.NewServer(0), bqs.NewServer(1), bqs.NewServer(2)}
	mem := bqs.NewInMemoryTransport(servers, 1)
	var wrapped bqs.Transport = &tracedTransport{inner: mem, tr: tr}
	if _, ok := wrapped.(bqs.BatchTransport); !ok {
		t.Error("wrapped transport is not a BatchTransport")
	}
	if g := wrapped.(bqs.BatchGrouper).GroupOf(2); g != mem.(bqs.BatchGrouper).GroupOf(2) {
		t.Errorf("GroupOf(2) = %d through the wrapper", g)
	}
	if wb := wrapped.(frameCoster).WorthBatching(); wb != mem.(frameCoster).WorthBatching() {
		t.Errorf("WorthBatching = %v through the wrapper", wb)
	}
	// An inner transport with none of the three is answered for the way the
	// cluster and the session treat a transport that lacks them.
	plain := &plainTransport{}
	bare := &tracedTransport{inner: plain, tr: tr}
	if bare.GroupOf(5) != 5 || !bare.WorthBatching() {
		t.Error("defaults for a plain transport: want one group per server, worth batching")
	}
	resps, err := bare.InvokeBatch(context.Background(), []bqs.BatchItem{{Server: 1}, {Server: 2}})
	if err != nil || len(resps) != 2 || !resps[0].OK || resps[1].OK || plain.calls != 2 {
		t.Errorf("InvokeBatch over a plain transport = %v, %v after %d calls", resps, err, plain.calls)
	}

	st := &tracedStore{Store: bqs.NewMemStore(), tr: tr}
	rec := bqs.StoreRecord{Key: keyName(1), Value: "v", Seq: 1}
	if err := st.Apply(rec); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(rec.Key); !ok || got.Value != "v" {
		t.Errorf("Get through the wrapper = %v, %v", got, ok)
	}
}

// TestBenchmarkJSONMatchesTheTables keeps BENCHMARK.json, which the driver
// reads, in step with the tables the program prints from.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default window is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program (or their reasons differ)", i, w.Name, specs[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in the program", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.bound) {
				t.Errorf("%s metric %s: bound %v in BENCHMARK.json, %g in the program", kind, d.name, m.Bound, d.bound)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, endToEnd, true)
	check("per-layer", doc.PerLayer, perLayer, false)
	var widest float64
	for _, d := range endToEnd {
		widest = math.Max(widest, d.bound)
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].bound != widest || widest > 0.25 {
		t.Errorf("setup_s must carry the largest bound, and none may pass 0.25")
	}
}

// TestSmoke runs every workload for one 0.3 s slice on a shrunken key
// space, untraced, and the most layered one traced: every metric must come
// out finite, no operation may fail, and the checker must stay silent.
func TestSmoke(t *testing.T) {
	o := options{seed: 9, seconds: 0.3, slices: 1, setups: 1, dir: t.TempDir(), out: t.TempDir(), keyDiv: 16}
	for i := range specs {
		sp := &specs[i]
		rep, err := runWorkload(o, sp, nil)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 10 || len(rep.Metrics) != len(endToEnd) {
			t.Errorf("%s: correct=%v failed=%d attempted=%d metrics=%d %v", sp.name, rep.Correct, rep.Failed, rep.Attempted, len(rep.Metrics), rep.notes)
		}
		if r := rep.Metrics["peak_load_ratio"].Value; r < 0.99 {
			t.Errorf("%s: measured load %.3f of the Theorem 4.1 bound — below a lower bound", sp.name, r)
		}
	}
	o.trace = 1
	// The layer probes are not part of the smoke; they are the metrics
	// listed after the traced ones.
	probes := make(map[string]float64)
	for i := len(perLayer) - 1; perLayer[i].name != "trace.overhead_frac"; i-- {
		probes[perLayer[i].name] = 0
	}
	sp := specByName("durable_batch")
	rep, err := runWorkload(o, sp, probes)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || len(rep.Metrics) != len(perLayer) {
		t.Errorf("traced %s: correct=%v failed=%d metrics=%d %v", sp.name, rep.Correct, rep.Failed, len(rep.Metrics), rep.notes)
	}
	for _, name := range []string{"sim.probes_per_op", "sim.batch_items_per_flush", "systems.select_us_p50", "wire.server_writes_per_op", "wire.frames_per_op", "store.applies_per_op", "store.fsyncs_per_op", "store.wal_bytes_per_op"} {
		if rep.Metrics[name].Value <= 0 {
			t.Errorf("traced %s: %s = %g, want the layer to have been seen", sp.name, name, rep.Metrics[name].Value)
		}
	}
	if fi, err := os.Stat(filepath.Join(o.out, "trace_durable_batch.jsonl")); err != nil || fi.Size() == 0 {
		t.Errorf("no span file written: %v", err)
	}
}
