// bqs-client drives the [MR98a] mixed read/write workload against a
// networked cluster of bqs-server shards, over the TCP wire protocol with
// pipelined, auto-reconnecting connections. It is the remote counterpart
// of cmd/bqs-sim's in-memory harness — the shared flags, the run
// pipeline and the report come from internal/harness, so their numbers
// are directly comparable: ops/sec plus the measured busiest-server
// access frequency next to the paper's L(Q) lower bounds (Theorem 4.1 /
// Corollary 4.2).
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
// as a wire flip item to the shard hosting the addressed server, so
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
// phase — every flip a wire flip item, every victim restored at the
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
// is epoch-aware by default: every request frame carries the epoch
// its quorum was drawn from in its gate, stale requests bounce
// with a retriable wrongepoch answer, and a follower self-heals the
// epoch plane when another coordinator resizes the fleet first.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bqs/internal/harness"
	"bqs/internal/sim"
	"bqs/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bqs-client:", err)
		os.Exit(1)
	}
}

func run() error {
	shared := harness.NewFlags("mgrid", 1, 2*time.Second)
	shared.Register(flag.CommandLine)
	routes := flag.String("routes", "", "route table, e.g. 0-8=host:7000,9-24=host:7001 (required)")
	poolSize := flag.Int("pool", 1, "TCP connections per server address")
	// Not flag.Parse: a test's non-exiting FlagSet gets the error back.
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		return err
	}
	b := shared.B

	sys, err := harness.BuildSystem(shared.System, b)
	if err != nil {
		return err
	}
	n := sys.UniverseSize()
	fmt.Printf("system: %s (n=%d, b=%d)\n", sys.Name(), n, b)
	if *routes == "" {
		return fmt.Errorf("-routes is required; the universe needs addresses for servers 0-%d", n-1)
	}
	table, err := wire.ParseRoutes(*routes)
	if err != nil {
		return err
	}
	plan, err := shared.Plan(sys)
	if err != nil {
		return err
	}
	// Coverage is checked against the largest universe the run will ever
	// address, so a scheduled resize cannot discover a missing shard
	// address mid-drain.
	if err := wire.CheckCoverage(table, harness.MaxReconfigUniverse(n, plan.Reconfig)); err != nil {
		return err
	}
	reg, stopMetrics, err := shared.Metrics()
	if err != nil {
		return err
	}
	defer stopMetrics()
	// The client is always epoch-aware: requests carry the epoch
	// their quorum was drawn from, and the follower self-heals on
	// wrongepoch bounces (adopting a newer record another coordinator
	// installed, or re-pushing ours to a shard that lost its epoch).
	follower := &harness.EpochFollower{}
	tr, err := wire.Dial(table, wire.WithPoolSize(*poolSize),
		wire.WithMetrics(reg), wire.WithEpochs(follower.OnStale))
	if err != nil {
		return err
	}
	defer tr.Close()
	opts := []sim.Option{sim.WithSeed(shared.Seed), sim.WithMetrics(reg),
		sim.WithTransport(func([]*sim.Server) sim.Transport { return tr })}
	if plan.Strategy != nil {
		opts = append(opts, plan.Strategy)
	}
	cluster, err := sim.NewCluster(sys, b, opts...)
	if err != nil {
		return err
	}
	defer cluster.Close()
	follower.Bind(tr, cluster)

	shards := make(map[string]bool)
	for _, addr := range table {
		shards[addr] = true
	}
	// The drivers flip through the transport, so the same schedule,
	// adversary and resize that drive an in-memory run drive the live TCP
	// fleet — every flip a batch item to the shard hosting the server.
	counters, _, err := plan.Execute(cluster, tr, reg,
		fmt.Sprintf("against %d shards (strategy=%s)", len(shards), shared.Strategy))
	if err != nil {
		return err
	}

	if counters.Violations > 0 {
		if plan.Adversary != nil && plan.Adversary.B > b {
			fmt.Println("violations are expected: the adversary's budget exceeds b")
			return nil
		}
		return fmt.Errorf("%d reads surfaced fabricated values — more than b Byzantine servers in the deployment, or a protocol bug", counters.Violations)
	}
	return nil
}
