// bqs-client drives the [MR98a] mixed read/write workload against a
// networked cluster of bqs-server shards, over the TCP wire protocol with
// pipelined, auto-reconnecting connections. It is the remote counterpart
// of cmd/bqs-sim's in-memory harness — the workload and report come from
// internal/harness, shared between the two, so their numbers are directly
// comparable: ops/sec plus the measured busiest-server access frequency
// next to the paper's L(Q) lower bounds (Theorem 4.1 / Corollary 4.2).
//
// Usage (the 16-server M-Grid(4,1) split across three shards):
//
//	bqs-server -listen :7000 -servers 0-5 &
//	bqs-server -listen :7001 -servers 6-10 &
//	bqs-server -listen :7002 -servers 11-15 -byzantine 12 &
//	bqs-client -system mgrid -b 1 \
//	    -routes 0-5=localhost:7000,6-10=localhost:7001,11-15=localhost:7002 \
//	    -clients 8 -duration 5s -keys 64 -key-dist zipf:1.1 -batch 16
//
// -keys/-key-dist spread the workload over a keyed object space (zipf:S
// for skewed popularity), and -batch M drives each client through a
// Session with M operations in flight: probes destined for replicas of
// one shard coalesce into a single batch frame — the same frame kind a
// lone probe travels in — the biggest throughput lever on a real network.
//
// The route table must cover every server of the chosen system's
// universe; run bqs-client with a -system/-b pair first to learn the
// universe size it prints.
//
// bqs-client is also the remote schedule driver of the churn engine:
// -fault-schedule replays a deterministic fault timeline and -churn a
// seeded stochastic one against the live deployment — each flip travels
// as a wire control frame to the shard hosting the addressed server, so
// replicas crash, turn Byzantine and recover mid-run exactly as they do
// in-memory, and -suspicion-ttl controls how fast clients re-admit
// recovered servers. A flip to an unreachable shard is counted as a miss
// and the schedule keeps going.
//
// -adversary runs the adversarial scheduler remotely the same way:
// "random,b=N" migrates N crash/Byzantine faults at random,
// "targeted,b=N" concentrates them on the most-loaded servers of the
// client's own access strategy (aimed with the load profile the cluster
// accumulates locally), and "timing" keys Byzantine modes to the protocol
// phase — every flip a wire control frame, every victim restored at the
// run boundary.
//
// Live reconfiguration: -reconfig replays a resize schedule
// ("at=5s:mgrid:36") against the running fleet — each step drains the
// current epoch, pushes the epoch-numbered record to every shard over
// the 0x57 reconfig frame (each daemon merges its replica state into
// the new universe before acking) and cuts the client over, with zero
// safety violations under sustained load. The route table must cover
// the largest target universe, so provision shard daemons for the
// post-resize fleet up front (idle replicas cost nothing). The client
// is epoch-aware by default: every pipelined request is
// covered by an announce frame pinning its epoch, stale requests bounce
// with a retriable wrongepoch answer, and a follower self-heals the
// epoch plane when another coordinator resizes the fleet first.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bqs"
	"bqs/internal/harness"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bqs-client:", err)
		os.Exit(1)
	}
}

func run() error {
	system := flag.String("system", "mgrid", "quorum system: threshold|grid|mgrid|rt|boostfpp|mpath|wheel")
	b := flag.Int("b", 1, "masking bound b")
	strategy := flag.String("strategy", "uniform", "quorum selection: uniform|optimal (optimal installs the Definition 3.8 LP strategy)")
	routes := flag.String("routes", "", "route table, e.g. 0-8=host:7000,9-24=host:7001 (required)")
	clients := flag.Int("clients", 8, "concurrent clients")
	ops := flag.Int("ops", 100, "operations per client (ignored when -duration is set)")
	duration := flag.Duration("duration", 0, "time-bounded run: clients issue ops until this elapses")
	timeout := flag.Duration("timeout", 2*time.Second, "per-operation deadline (0 = none)")
	poolSize := flag.Int("pool", 1, "TCP connections per server address")
	seed := flag.Int64("seed", 1, "random seed for quorum selection")
	keys := flag.Int("keys", 0, "key-space size: each op targets one of N keys (0 = the single default register)")
	keyDist := flag.String("key-dist", "uniform", "key popularity: uniform|zipf:S (S > 1, e.g. zipf:1.1)")
	batch := flag.Int("batch", 1, "operations in flight per client via a Session; probes to one shard share a frame (1 = blocking calls)")
	faultSchedule := flag.String("fault-schedule", "", "fault timeline \"100ms:3:crashed,600ms:3:correct\" driven remotely via control frames")
	churn := flag.String("churn", "", "stochastic churn \"mtbf=300ms,mttr=100ms[,down=behavior][,servers=lo-hi]\" over the -duration horizon, driven remotely")
	suspicionTTL := flag.Duration("suspicion-ttl", 0, "client suspicion TTL so recovered servers regain traffic (0 = auto: 50ms when churn is active)")
	adversary := flag.String("adversary", "", "adversarial fault placement \"random|targeted|timing[,b=N][,behavior=MODE][,interval=D][,seed=N]\" driven remotely via control frames")
	reconfigSpec := flag.String("reconfig", "", "resize schedule \"at=5s:mgrid:36[,at=...]\" driven against the live fleet: each step drains, installs the new epoch on every shard and cuts over; routes must cover the largest target universe")
	benchJSON := flag.String("bench-json", "", "write the run's benchmark snapshot (ops/s, p50/p99, measured load) as JSON to this path")
	storeLabel := flag.String("store-label", "memory", "store engine label recorded in -bench-json output (set to durable when the daemons run -data-dir)")
	metricsAddr := flag.String("metrics-addr", "", "serve live telemetry on this address: /metrics (Prometheus), /vars, /events, /debug/pprof")
	flag.Parse()

	sys, err := harness.BuildSystem(*system, *b)
	if err != nil {
		return err
	}
	n := sys.UniverseSize()
	fmt.Printf("system: %s (n=%d, b=%d)\n", sys.Name(), n, *b)
	if *routes == "" {
		return fmt.Errorf("-routes is required; the universe needs addresses for servers 0-%d", n-1)
	}
	table, err := bqs.ParseRoutes(*routes)
	if err != nil {
		return err
	}
	reconfigSteps, err := harness.ParseReconfigSchedule(*reconfigSpec, *b)
	if err != nil {
		return err
	}
	// Coverage is checked against the largest universe the run will ever
	// address, so a scheduled resize cannot discover a missing shard
	// address mid-drain.
	if err := bqs.CheckRouteCoverage(table, harness.MaxReconfigUniverse(n, reconfigSteps)); err != nil {
		return err
	}
	// The registry always exists — instruments are cheap and the bench
	// snapshot reads its latency histograms — but the HTTP endpoint only
	// binds under -metrics-addr.
	reg := bqs.NewMetricsRegistry()
	if *metricsAddr != "" {
		ms, err := bqs.ServeMetrics(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer ms.Close()
		fmt.Printf("metrics: http://%s/metrics (also /vars, /events, /debug/pprof)\n", ms.Addr())
	}
	// The client is always epoch-aware: requests announce the epoch
	// their quorum was drawn from, and the follower self-heals on
	// wrongepoch bounces (adopting a newer record another coordinator
	// installed, or re-pushing ours to a shard that lost its epoch).
	follower := &harness.EpochFollower{}
	tr, err := bqs.DialWire(table, bqs.WithWirePoolSize(*poolSize),
		bqs.WithWireMetrics(reg), bqs.WithWireEpochs(follower.OnStale))
	if err != nil {
		return err
	}
	defer tr.Close()
	opts := []bqs.ClusterOption{bqs.WithSeed(*seed), bqs.WithMetrics(reg),
		bqs.WithTransport(func([]*bqs.Server) bqs.Transport { return tr })}
	stratOpt, err := harness.StrategyOption(*strategy)
	if err != nil {
		return err
	}
	if stratOpt != nil {
		opts = append(opts, stratOpt)
	}
	cluster, err := bqs.NewCluster(sys, *b, opts...)
	if err != nil {
		return err
	}
	follower.Bind(tr, cluster)

	schedule, err := harness.BuildSchedule(*faultSchedule, *churn, n, *duration, *seed)
	if err != nil {
		return err
	}
	var advCfg *bqs.AdversaryConfig
	if *adversary != "" {
		parsed, err := bqs.ParseAdversary(*adversary)
		if err != nil {
			return err
		}
		advCfg = &parsed
	}
	ttl := harness.ChurnTTL(schedule, *suspicionTTL)
	if advCfg != nil && ttl == 0 {
		ttl = harness.DefaultChurnSuspicionTTL
	}

	shards := make(map[string]bool)
	for _, addr := range table {
		shards[addr] = true
	}
	dist, err := harness.ParseKeyDist(*keyDist)
	if err != nil {
		return err
	}
	w := harness.Workload{Clients: *clients, Ops: *ops, Duration: *duration, Timeout: *timeout,
		SuspicionTTL: ttl, Keys: *keys, Dist: dist, Batch: *batch, Seed: *seed}
	fmt.Printf("workload: %s against %d shards (strategy=%s)\n", w.Describe(), len(shards), *strategy)

	// Remote churn: the driver replays the schedule against the
	// deployment itself — each flip is a control frame to the shard
	// hosting the server, so the same timeline that drives an in-memory
	// run drives the live TCP fleet.
	driver := harness.StartChurn(tr, schedule, ttl, reg)
	// Remote adversary: flips go out as control frames like churn's, but
	// the targeted scheduler aims with the client-side load profile the
	// cluster accumulates — the adversary sees exactly the access strategy
	// it is attacking.
	var advDriver *harness.AdversaryDriver
	if advCfg != nil {
		advDriver, err = harness.StartAdversary(*advCfg, tr, cluster, n, reg)
		if err != nil {
			return err
		}
	}
	// The resize schedule drives the whole fleet from here: each step
	// drains the client's epoch, pushes the record to every shard (which
	// merge their own replica state) and cuts over.
	recDriver := harness.StartReconfig(cluster, reconfigSteps)
	counters := harness.Run(cluster, w)
	recErr := recDriver.Stop()
	if err := advDriver.Stop(); err != nil {
		return err
	}
	if err := driver.Stop(); err != nil {
		return err
	}
	if recErr != nil {
		return recErr
	}
	reportSys := sys
	if recDriver.Applied() > 0 {
		if hs, ok := cluster.System().(harness.System); ok {
			reportSys = hs
		}
	}
	sum := harness.Report(cluster, reportSys, *b, counters)
	if *benchJSON != "" {
		snap := harness.Snapshot("client", reportSys, *b, *storeLabel, w, counters, sum)
		if err := harness.WriteBenchJSON(*benchJSON, []harness.BenchSnapshot{snap}); err != nil {
			return err
		}
		fmt.Printf("bench: wrote %s (%.0f ops/s, p50 %.2fms, p99 %.2fms, %s store)\n",
			*benchJSON, snap.OpsPerSec, snap.P50Ms, snap.P99Ms, snap.Store)
	}

	if counters.Violations > 0 {
		if advCfg != nil && advCfg.B > *b {
			fmt.Println("violations are expected: the adversary's budget exceeds b")
			return nil
		}
		return fmt.Errorf("%d reads surfaced fabricated values — more than b Byzantine servers in the deployment, or a protocol bug", counters.Violations)
	}
	return nil
}
