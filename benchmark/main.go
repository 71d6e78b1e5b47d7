// Command benchmark is the repository's benchmark: four workloads driven
// through the public bqs API from one process, end-to-end metrics measured
// with nothing wrapped, and per-layer metrics from a separate traced run.
// README.md in this directory has the tables; BENCHMARK.json at the root of
// the repository has the contract.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef declares one metric: its unit, which way is better, and — for
// an end-to-end metric — the share of the parent's median by which it may
// get worse. BENCHMARK.json repeats these; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
	{"peak_load_ratio", "ratio", "lower", 0.02},
}

var perLayer = []metricDef{
	{name: "sim.client_self_us_per_op", unit: "us", better: "lower"},
	{name: "sim.picks_per_op", unit: "count", better: "lower"},
	{name: "sim.probes_per_op", unit: "count", better: "lower"},
	{name: "sim.probe_fail_frac", unit: "ratio", better: "lower"},
	{name: "sim.invoke_us_p50", unit: "us", better: "lower"},
	{name: "sim.invoke_us_p99", unit: "us", better: "lower"},
	{name: "sim.straggler_us_p50", unit: "us", better: "lower"},
	{name: "sim.first_probe_delay_us_p50", unit: "us", better: "lower"},
	{name: "sim.batch_items_per_flush", unit: "count", better: "higher"},
	{name: "systems.select_us_p50", unit: "us", better: "lower"},
	{name: "systems.select_us_per_op", unit: "us", better: "lower"},
	{name: "wire.server_writes_per_op", unit: "count", better: "lower"},
	{name: "wire.server_reads_per_op", unit: "count", better: "lower"},
	{name: "wire.server_bytes_out_per_op", unit: "B", better: "lower"},
	{name: "wire.server_bytes_in_per_op", unit: "B", better: "lower"},
	{name: "wire.frames_per_op", unit: "count", better: "lower"},
	{name: "wire.frames_per_write_syscall", unit: "count", better: "higher"},
	{name: "store.apply_us_p50", unit: "us", better: "lower"},
	{name: "store.apply_us_p99", unit: "us", better: "lower"},
	{name: "store.applies_per_op", unit: "count", better: "lower"},
	{name: "store.fsyncs_per_op", unit: "count", better: "lower"},
	{name: "store.records_per_fsync", unit: "count", better: "higher"},
	{name: "store.wal_bytes_per_op", unit: "B", better: "lower"},
	{name: "proc.gc_cpu_frac", unit: "ratio", better: "lower"},
	{name: "proc.gc_cycles_per_kop", unit: "count", better: "lower"},
	{name: "proc.alloc_kb_per_op", unit: "KiB", better: "lower"},
	{name: "proc.sys_cpu_frac", unit: "ratio", better: "lower"},
	{name: "proc.peak_rss_mb", unit: "MiB", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "core.strategy_pick_ns", unit: "ns", better: "lower"},
	{name: "core.strategy_pick_allocs", unit: "count", better: "lower"},
	{name: "systems.threshold_select_ns", unit: "ns", better: "lower"},
	{name: "systems.mpath_select_us", unit: "us", better: "lower"},
	{name: "systems.mpath_select_allocs", unit: "count", better: "lower"},
	{name: "measures.load_lp_ms", unit: "ms", better: "lower"},
	{name: "wire.encode_request_ns", unit: "ns", better: "lower"},
	{name: "wire.decode_request_ns", unit: "ns", better: "lower"},
	{name: "wire.encode_batch32_us", unit: "us", better: "lower"},
	{name: "wire.decode_batch32_us", unit: "us", better: "lower"},
	{name: "wire.invoke_rtt_us", unit: "us", better: "lower"},
	{name: "wire.invoke_allocs", unit: "count", better: "lower"},
	{name: "sim.handle_write_ns", unit: "ns", better: "lower"},
	{name: "sim.handle_read_ns", unit: "ns", better: "lower"},
	{name: "store.mem_apply_ns", unit: "ns", better: "lower"},
	{name: "store.disk_apply_nosync_us", unit: "us", better: "lower"},
	{name: "store.disk_apply_fsync_us", unit: "us", better: "lower"},
	{name: "store.recovery_ms_per_10k", unit: "ms", better: "lower"},
}

// options are the command's flags, and what main derives from them.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	aa       int
	dir      string
	// slices, setups, out and keyDiv are not flags: main fixes them at
	// seconds/sliceSeconds, setupRepeats, benchmark/out and 1. Only the
	// smoke test sets anything else (one short slice, one set-up, a
	// temporary directory, a shrunken key space).
	slices int
	setups int
	out    string
	keyDiv int
}

// Measured window: slices of 2 s after one discarded warm-up slice of the
// same length. The prototype settled on 12 × 2.5 s; the driver's time cap
// (92 runs in 3420 s) leaves room for 10 × 2 s, the first step of the
// trimming rule in README.md.
const (
	defaultSeconds = 20
	sliceSeconds   = 2
	// setupRepeats complete set-ups are timed and setup_s is their median:
	// one 60 ms set-up varied 30 % from run to run.
	setupRepeats = 5
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated key/op schedule (the cluster's own seed is fixed)")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the measured window, split into 2 s slices")
	flag.IntVar(&o.trace, "trace", 0, "1: wrap the seams and print the per-layer metrics in place of the end-to-end ones")
	flag.IntVar(&o.aa, "aa", 0, "K>0: run the untraced suite 2K times (A B B A ...) and compare the two sides' medians with the bounds")
	flag.StringVar(&o.dir, "dir", "", "parent directory of the disk stores (default: the system's temporary directory); emptied again")
	flag.Parse()
	o.slices = max(1, int(o.seconds/sliceSeconds))
	o.setups, o.out, o.keyDiv = setupRepeats, filepath.Join("benchmark", "out"), 1
	// Two closed-loop callers and the servers share two processors, on any
	// host. GOGC is left alone: the collector's default pacing is part of
	// what the program costs.
	runtime.GOMAXPROCS(2)
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i := range specs {
		names[i] = specs[i].name
	}
	return strings.Join(names, ", ")
}

func run(o options) error {
	if o.seconds <= 0 || o.trace < 0 || o.trace > 1 {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	if o.dir != "" {
		if err := os.MkdirAll(o.dir, 0o755); err != nil {
			return err
		}
	}
	fmt.Printf("env %s GOMAXPROCS=%d nproc=%d GOGC=%q\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), os.Getenv("GOGC"))
	if o.aa > 0 {
		return runAA(o)
	}
	var todo []*spec
	if o.workload == "all" {
		for i := range specs {
			todo = append(todo, &specs[i])
		}
	} else if sp := specByName(o.workload); sp != nil {
		todo = []*spec{sp}
	} else {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadNames())
	}
	var probes map[string]float64
	if o.trace == 1 {
		var err error
		if probes, err = runProbes(o.dir); err != nil {
			return err
		}
	}
	correct := true
	for _, sp := range todo {
		rep, err := runWorkload(o, sp, probes)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		rep.print(sp.name)
		correct = correct && rep.Correct
	}
	if !correct {
		return fmt.Errorf("incorrect output (see above)")
	}
	return nil
}

// report is one workload's result; its JSON form is the line the driver
// reads.
type report struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]metricV `json:"metrics"`
	defs      []metricDef
	notes     []string
}

type metricV struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) set(defs []metricDef, values map[string]float64) error {
	r.defs = defs
	r.Metrics = make(map[string]metricV, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no value (%v)", d.name, v)
		}
		r.Metrics[d.name] = metricV{Value: v, Unit: d.unit}
	}
	return nil
}

func (r *report) print(workload string) {
	for _, d := range r.defs {
		fmt.Printf("metric %-14s %-32s %14.6g %-6s (%s is better)\n", workload, d.name, r.Metrics[d.name].Value, d.unit, d.better)
	}
	for _, n := range r.notes {
		fmt.Printf("note   %-14s %s\n", workload, n)
	}
	line, _ := json.Marshal(r) // a map of floats and strings always encodes
	fmt.Printf("%s\n", line)
}

func loadavg() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return math.NaN()
	}
	v, err := strconv.ParseFloat(strings.Fields(string(data))[0], 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// job is one workload with its generated inputs.
type job struct {
	o        options
	sp       *spec
	keys     []string
	sched    [callers][]op
	sliceLen time.Duration
}

// runWorkload generates the workload's inputs from the seed and measures
// it: end to end with nothing wrapped, or layer by layer with -trace 1.
func runWorkload(o options, sp *spec, probes map[string]float64) (*report, error) {
	la := loadavg()
	warn := ""
	if la > 1.0 {
		warn = "  WARNING: host busy before the run; expect slower, noisier numbers"
	}
	fmt.Printf("load   %-14s start loadavg1=%.2f%s\n", sp.name, la, warn)
	defer func() { fmt.Printf("load   %-14s end   loadavg1=%.2f\n", sp.name, loadavg()) }()

	j := job{o: o, sp: sp, keys: make([]string, max(sp.keys/o.keyDiv, 2*sp.window))}
	for i := range j.keys {
		j.keys[i] = keyName(i)
	}
	for c := range j.sched {
		j.sched[c] = genSchedule(o.seed, c, scheduleLen, len(j.keys), sp.writeShare, sp.window)
	}
	j.sliceLen = time.Duration(o.seconds / float64(o.slices) * float64(time.Second))
	// No run takes anywhere near this long; the deadline only turns a hang
	// into failed operations and an exit.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if o.trace == 1 {
		return j.measureLayers(ctx, probes)
	}
	return j.measureEndToEnd(ctx)
}

// measureEndToEnd sets the workload up o.setups times on fresh state,
// keeps the last instance and drives it. Each set-up is scaled by the
// host's speed around it, like a slice.
func (j *job) measureEndToEnd(ctx context.Context) (*report, error) {
	var setups, rawSetups []float64
	var in *instance
	// A fresh process, its threads and poller still starting, reads slow;
	// that reading is thrown away.
	hostSpeed()
	speed := hostSpeed()
	for i := 0; i < j.o.setups; i++ {
		if in != nil {
			if err := in.tearDown(); err != nil {
				return nil, fmt.Errorf("tear down: %w", err)
			}
			runtime.GC()
		}
		start := time.Now()
		var err error
		if in, err = setUp(ctx, j.sp, j.keys, j.o.dir, nil); err != nil {
			return nil, fmt.Errorf("set up: %w", err)
		}
		took := time.Since(start).Seconds()
		before := speed
		speed = hostSpeed()
		rawSetups = append(rawSetups, took)
		setups = append(setups, took*speedFactor(before, speed))
	}
	res := drive(ctx, in, j.sched, j.o.slices, j.sliceLen, nil).summarize(in)
	if err := in.tearDown(); err != nil {
		return nil, fmt.Errorf("tear down: %w", err)
	}
	res.values["setup_s"] = median(setups)
	rep := &report{Attempted: res.attempted, Failed: res.failed, Correct: res.violations == 0}
	res.unscaled["setup_s"] = median(rawSetups)
	rep.notes = append(rep.notes, res.String(), res.unscaledNote(),
		fmt.Sprintf("unscaled ops_per_s by slice %.0f", res.sliceOps),
		fmt.Sprintf("host speed by slice %.2f of the reference", res.speeds))
	if res.violation != "" {
		rep.notes = append(rep.notes, "VIOLATION: "+res.violation)
	}
	scaledOps := make([]float64, len(res.sliceOps))
	for s, v := range res.sliceOps {
		scaledOps[s] = v / res.speeds[s]
	}
	if gap := headTailGap(scaledOps); gap > 0.10 {
		rep.notes = append(rep.notes, fmt.Sprintf("WARNING: first-three vs last-three slice ops_per_s differ by %.1f%% after scaling (a growing generator heap, or a host phase shorter than the readings follow)", gap*100))
	}
	return rep, rep.set(endToEnd, res.values)
}

// measureLayers spends 4 tenths of the window on an unwrapped instance and
// the rest on a wrapped one, so that the tracing overhead is a number from
// this same run.
func (j *job) measureLayers(ctx context.Context, probes map[string]float64) (*report, error) {
	tracedSlices := max(1, j.o.slices*6/10)
	refSlices := max(1, j.o.slices-tracedSlices)
	measure := func(slices int, tr *tracer) (*result, error) {
		in, err := setUp(ctx, j.sp, j.keys, j.o.dir, tr)
		if err != nil {
			return nil, fmt.Errorf("set up: %w", err)
		}
		res := drive(ctx, in, j.sched, slices, j.sliceLen, tr).summarize(in)
		if err := in.tearDown(); err != nil {
			return nil, fmt.Errorf("tear down: %w", err)
		}
		runtime.GC()
		return res, nil
	}
	ref, err := measure(refSlices, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer(j.sp, len(j.keys))
	res, err := measure(tracedSlices, tr)
	if err != nil {
		return nil, err
	}
	ops := tr.collect()
	st := summarizeSpans(ops)
	path := filepath.Join(j.o.out, "trace_"+j.sp.name+".jsonl")
	if err := writeSpans(path, ops); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	values := tr.layerMetrics(res.attempted-res.failed, st)
	values["trace.overhead_frac"] = 1 - res.values["ops_per_s"]/ref.values["ops_per_s"]
	for k, v := range probes {
		values[k] = v
	}
	// The wrappers are on for exactly the measured slices, so the tracer
	// must have seen every operation the generator counted.
	seen := tr.ops.Load()
	rep := &report{
		Attempted: res.attempted + ref.attempted,
		Failed:    res.failed + ref.failed,
		Correct:   res.violations+ref.violations == 0 && seen == res.attempted,
	}
	rep.notes = append(rep.notes,
		"untraced "+ref.String(), "traced "+res.String(),
		fmt.Sprintf("traced ops_per_s=%.0f untraced=%.0f; tracer saw %d operations", res.values["ops_per_s"], ref.values["ops_per_s"], seen),
		fmt.Sprintf("traced write_p50_ms=%.4f unscaled, as the spans are; sampled writes: op p50 %.1f us = self p50 %.1f us + invoke union p50 %.1f us (medians need not add up exactly)",
			res.unscaled["write_p50_ms"], st.writeUsP50, st.writeSelfUsP50, st.writeInvokeUsP50),
		fmt.Sprintf("%d sampled operations written to %s", st.sampled, path))
	for _, r := range []*result{ref, res} {
		if r.violation != "" {
			rep.notes = append(rep.notes, "VIOLATION: "+r.violation)
		}
	}
	if seen != res.attempted {
		rep.notes = append(rep.notes, fmt.Sprintf("MISMATCH: generator counted %d operations, tracer %d", res.attempted, seen))
	}
	return rep, rep.set(perLayer, values)
}
