// Package bqs implements the Byzantine quorum systems of Malkhi, Reiter
// and Wool, "The Load and Availability of Byzantine Quorum Systems"
// (PODC 1997 / SIAM J. Computing).
//
// A b-masking quorum system is a collection of pairwise-intersecting
// subsets (quorums) of a server universe in which every two quorums share
// at least 2b+1 servers, so that a replicated service accessed through
// quorums stays consistent despite b arbitrarily faulty (Byzantine)
// servers, while remaining available through f ≥ b benign crashes. The
// package provides:
//
//   - The four constructions introduced by the paper — M-Grid (§5.1),
//     recursive thresholds RT(k,ℓ) (§5.2), boosted finite projective
//     planes boostFPP (§6) and M-Path (§7) — plus the two earlier
//     baselines it compares against (Threshold and Grid) and the regular
//     systems used as composition inputs (Majority, NW-Grid, FPP).
//   - The two quality measures the paper studies: load (Definition 3.8,
//     computed exactly by LP, by the fair-system shortcut of
//     Proposition 3.9, or empirically) and crash probability
//     (Definition 3.10, computed exactly for small universes, by Monte
//     Carlo for large ones, and in closed form where the paper derives
//     one), together with the lower bounds of Theorem 4.1,
//     Corollary 4.2 and Propositions 4.3–4.5.
//   - Quorum composition S∘R (Definition 4.6) with the Theorem 4.7
//     parameter algebra, and the boosting technique that turns any
//     regular quorum system into a b-masking one.
//   - A simulated keyed object store running the [MR98a] protocol
//     independently per key, for exercising the constructions end to end
//     under injected crash and Byzantine faults: a concurrent,
//     context-aware quorum-access engine (Cluster/Client over a pluggable
//     Transport) that supports any number of concurrent clients and
//     measures empirical load from live traffic (Cluster.LoadProfile) for
//     comparison against the Theorem 4.1 bounds. A quorum phase is one
//     call on the caller's goroutine over the built-in transport, which
//     under a latency model calls each member at its arrival time, and
//     over TCP one frame per member with one flush per shard connection;
//     it fans out a goroutine per member only for a Session's batched
//     probes or under a custom WithTransport, so a single-client run is
//     reproducible from its seed with no option set. A client
//     (Cluster.NewClient) believes a value only when b+1 replies of a
//     quorum agree on it. A write takes the (b+1)-th largest timestamp a
//     quorum reports: some correct server reported at least that, so b
//     liars cannot inflate it, and b+1 correct servers report at least
//     any completed write's, so it dominates them all — with no vote to
//     lose, the phase never retries under contention. Client.ReadKey
//     and WriteKey address individual registers (Read/Write are the
//     default register), and the Session API (Client.NewSession)
//     pipelines keyed operations asynchronously —
//     ReadAsync/WriteAsync futures whose quorum probes coalesce into
//     batched frames over a transport that can carry them, flushed when
//     full or once nobody else is about to enqueue.
//   - A real network stack behind the same Transport seam: NewWireServer
//     hosts shards of sim replicas over TCP with a length-prefixed binary
//     protocol (one format: keyed, batched frames; an unknown frame kind
//     drops the connection) and graceful shutdown, and DialWire returns a
//     pipelined, connection-pooled, auto-reconnecting client transport
//     that maps unreachable servers to Response{OK: false} — a batched
//     frame to a dead shard fails fast as a unit — so quorum re-selection
//     masks network failures exactly like crashes. cmd/bqs-server and
//     cmd/bqs-client run a deployment from the command line.
//   - A dynamic fault/churn engine (internal/faults) that flips server
//     behaviors WHILE a workload runs: deterministic timelines
//     (-fault-schedule) or a seeded stochastic churn model (-churn)
//     replayed by a fault controller, or a live adversary placing b
//     faults (-adversary), against a Cluster in-memory or a WireClient
//     sending flip items to remote shards. The engine sits outside the
//     cluster and sees a fleet only through its flip and load-profile
//     seams. Clients rehabilitate suspicion
//     per-server (aging plus probe-on-forgive), so recovered servers
//     regain traffic, and the harness availability mode
//     (bqs-sim -availability) measures the empirical system-crash rate
//     against the exact F_p(Q) of Definition 3.10 and the
//     Propositions 4.3-4.5 lower bounds.
//   - Live reconfiguration: a running Cluster changes its quorum system
//     without stopping via epoch-numbered records (internal/reconfig)
//     applied with a two-phase propose/drain/cut-over protocol
//     (Cluster.Reconfigure). In-flight operations complete entirely
//     inside one epoch, so no quorum ever mixes universes; over TCP,
//     servers gate data frames on the epoch and bounce stale clients
//     with a retriable wrong-epoch signal carrying the new record. Both
//     harness binaries schedule resizes mid-run with -reconfig.
//
// # Quick start
//
//	sys, err := bqs.NewMGrid(7, 3) // Figure 1: n = 49, b = 3
//	if err != nil { ... }
//	fmt.Println(sys.MaskingBound(), bqs.Resilience(sys), sys.Load())
//
//	rng := rand.New(rand.NewSource(1))
//	quorum, err := sys.SelectQuorum(rng, bqs.NewSet(49)) // no failures
//
//	cluster, err := bqs.NewCluster(sys, 3, bqs.WithSeed(1))
//	if err != nil { ... }
//	client := cluster.NewClient(1)
//	err = client.Write(ctx, "hello")
//	tv, err := client.Read(ctx)
//
// See README.md for a fuller tour and docs/ARCHITECTURE.md for the layer
// map (core → systems/measures → sim → faults/wire → harness → cmd, with the
// Transport and Picker seams). The experiment harness that regenerates
// every table and figure of the paper lives in cmd/bqs-tables and
// cmd/bqs-figures; see EXPERIMENTS.md for how to run it and compare
// measured numbers against the paper's.
package bqs
