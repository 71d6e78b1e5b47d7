// bqs-sim drives the replicated shared-variable protocol of [MR98a] over a
// chosen b-masking quorum system with injected crash and Byzantine faults.
// It is a throughput harness: any number of concurrent clients issue mixed
// reads and writes, every probe feeds the cluster's live load profile, and
// the run ends by comparing the measured busiest-server frequency against
// the paper's L(Q) lower bounds (Theorem 4.1).
//
// Usage:
//
//	bqs-sim [-system threshold|grid|mgrid|rt|boostfpp|mpath|wheel] [-b 3]
//	        [-strategy uniform|optimal] [-byzantine 3] [-crashed 2]
//	        [-clients 8] [-ops 100] [-duration 0] [-drop 0] [-latency 0]
//	        [-jitter 0] [-timeout 0] [-seed 1]
//	        [-keys 0] [-key-dist uniform|zipf:S] [-batch 1]
//	        [-fault-schedule SPEC] [-churn SPEC] [-suspicion-ttl 0]
//	        [-availability SPEC] [-p-vector SPEC] [-domains SPEC]
//	        [-adversary SPEC] [-reconfig SPEC] [-data-dir DIR] [-fsync=true]
//	        [-metrics-addr ADDR]
//
// With -duration the run is time-bounded instead of op-bounded. With
// -strategy optimal, quorum selection samples the LP-optimal access
// strategy of Definition 3.8 (solved at startup), so the measured load
// converges to L(Q) itself; the run fails if a fault-free measurement
// lands more than 10% from the LP value. The shared flags, the run
// pipeline (workload, churn/adversary/resize drivers) and the report come
// from internal/harness, shared with cmd/bqs-client, so in-memory and TCP
// clusters are measured comparably; this file keeps the in-memory knobs,
// the availability experiment and the LP-convergence verdict.
//
// The keyed data plane: -keys N spreads operations over an N-key object
// space with popularity -key-dist (uniform, or zipf:S for rank-S^-s skew
// — load is per quorum access and key-oblivious, so the LP convergence
// check stays armed at any skew), and -batch M drives each client
// through a Session with M operations in flight, whose probes coalesce
// into batched transport frames.
//
// Dynamic faults (the churn engine): -fault-schedule replays a
// deterministic timeline ("100ms:3:crashed,600ms:3:correct") and -churn
// generates a seeded stochastic one ("mtbf=300ms,mttr=100ms", requires
// -duration) — both flip server behaviors WHILE the workload runs, so
// recovery, flapping and cascades are exercised live; -suspicion-ttl
// controls how fast clients re-admit recovered servers (0 = auto: 50ms
// whenever churn is active). A schedule that never leaves Correct keeps
// the fault-free LP convergence check armed — churn instrumentation must
// not perturb the measurement.
//
// Live reconfiguration: -reconfig replays a resize schedule
// ("at=5s:mgrid:36,at=20s:compose:6x6") WHILE the workload runs — each
// step drains the current epoch, cuts the cluster over to the target
// quorum system at the next epoch (keeping -b) and hands the keyed
// state to the new universe, printing the epoch-cutover line the CI
// smoke greps. An aborted resize (drain exceeding the bound) fails the
// run. The report then holds the measurement against the FINAL system's
// bounds, and the -strategy optimal convergence check pins the
// post-resize load to the new system's LP: the current-epoch load
// profile resets at cutover.
//
// Durable state: -data-dir DIR backs every server with the WAL+snapshot
// store (one engine per server under DIR/server-NNNN), so writes are
// persisted before they are acknowledged and churn behaviors like
// "recover=restart" exercise true crash-recovery; -fsync=false trades
// tail durability for throughput.
//
// -availability replaces the workload with the Definition 3.10
// experiment: many seeded epochs each crash servers i.i.d. with
// probability p and run the protocol; the empirical system-crash rate is
// compared against CrashProbabilityExact (universes ≤ 24), the Monte
// Carlo estimate and the Propositions 4.3–4.5 lower bounds, and the run
// exits non-zero when the measurement lands more than 3 binomial standard
// deviations from the exact value.
//
// Heterogeneous and adversarial failure regimes: -p-vector replaces the
// scalar p with per-server crash probabilities ("0.01" uniform,
// "0.1,0.2,..." positional, "*:0.01,0-3:0.2" ranged) and -domains adds
// correlated failure domains ("0-3:0.05,8+12:0.2" — each fires as one
// Bernoulli taking all members down together); the empirical rate is then
// held against the generalized exact/Monte-Carlo F under that model.
// -adversary replaces stochastic draws with adversarial placement:
// "random,b=N" crashes a uniform N-subset (still enumerable, so the 3σ
// assertion stays armed), "targeted,b=N" concentrates the budget on the
// most-loaded servers of the live access strategy, and "timing" keys
// Byzantine modes to the protocol phase. Without -availability, -adversary
// runs the same scheduler live beside the workload (mobile corruption
// within its budget), composing with -churn.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"bqs/internal/core"
	"bqs/internal/faults"
	"bqs/internal/harness"
	"bqs/internal/measures"
	"bqs/internal/obs"
	"bqs/internal/sim"
	"bqs/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bqs-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	shared := harness.NewFlags("threshold", 3, 0)
	shared.Register(flag.CommandLine)
	byzantine := flag.Int("byzantine", 3, "number of Byzantine (fabricating) servers to inject")
	crashed := flag.Int("crashed", 0, "number of crashed servers to inject")
	drop := flag.Float64("drop", 0, "per-message response-loss probability")
	latency := flag.Duration("latency", 0, "base per-server round-trip latency")
	jitter := flag.Duration("jitter", 0, "per-server latency jitter (uniform on [0,jitter])")
	availability := flag.String("availability", "", "availability experiment \"p=0.1,epochs=2000[,seed=N][,mctrials=N]\": empirical crash rate vs F_p(Q); replaces the workload (-adversary then places faults per epoch)")
	pVector := flag.String("p-vector", "", "heterogeneous per-server crash probabilities for -availability: \"0.1\" uniform, \"0.1,0.2,...\" positional, or \"*:0.05,0-3:0.2\" ranged")
	domains := flag.String("domains", "", "correlated failure domains for -availability: \"members:prob\" entries, e.g. \"0-3:0.05,8+12:0.2\"")
	dataDir := flag.String("data-dir", "", "back every server with a durable WAL+snapshot store under DIR/server-NNNN (empty = in-memory registers)")
	fsync := flag.Bool("fsync", true, "fsync each durable group commit (only with -data-dir)")
	// Not flag.Parse: a test's non-exiting FlagSet gets the error back.
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		return err
	}
	b := shared.B

	sys, err := harness.BuildSystem(shared.System, b)
	if err != nil {
		return err
	}
	fmt.Printf("system: %s (n=%d, b=%d, f=%d)\n",
		sys.Name(), sys.UniverseSize(), b, core.Resilience(sys))
	reg, stopMetrics, err := shared.Metrics()
	if err != nil {
		return err
	}
	defer stopMetrics()

	if *availability != "" {
		// The availability experiment defines its own workload and fault
		// model; silently dropping other explicitly-set flags would hand
		// the user a valid-looking F_p that answers a different question.
		if conflicts := availabilityFlagConflicts(); len(conflicts) > 0 {
			return fmt.Errorf("-availability is a standalone experiment (only -system, -b, -seed, -p-vector, -domains and -adversary compose with it); drop -%s", strings.Join(conflicts, ", -"))
		}
		return runAvailability(sys, b, *availability, *pVector, *domains, shared.Adversary, shared.Seed, reg)
	}
	if *pVector != "" || *domains != "" {
		return fmt.Errorf("-p-vector and -domains shape the -availability crash model; for live-workload faults use -churn (per-group mtbf/mttr and correlated domains)")
	}

	opts := []sim.Option{sim.WithSeed(shared.Seed), sim.WithDropRate(*drop),
		sim.WithLatency(*latency, *jitter), sim.WithMetrics(reg)}
	plan, err := shared.Plan(sys)
	if err != nil {
		return err
	}
	if plan.Strategy != nil {
		opts = append(opts, plan.Strategy)
	}
	if *dataDir != "" {
		dir, syncOn := *dataDir, *fsync
		opts = append(opts, sim.WithStores(func(id int) (store.Store, error) {
			return store.Open(filepath.Join(dir, fmt.Sprintf("server-%04d", id)),
				store.WithFsync(syncOn), store.WithMetrics(reg))
		}))
	}
	cluster, err := sim.NewCluster(sys, b, opts...)
	if err != nil {
		return err
	}
	defer cluster.Close()
	if *dataDir != "" {
		fmt.Printf("store: durable under %s (fsync=%v)\n", *dataDir, *fsync)
	}
	rng := rand.New(rand.NewSource(shared.Seed))
	perm := rng.Perm(sys.UniverseSize())
	if *byzantine+*crashed > len(perm) {
		return fmt.Errorf("too many faults for %d servers", len(perm))
	}
	if err := cluster.InjectFault(sim.ByzantineFabricate, perm[:*byzantine]...); err != nil {
		return err
	}
	if err := cluster.InjectFault(sim.Crashed, perm[*byzantine:*byzantine+*crashed]...); err != nil {
		return err
	}
	fmt.Printf("faults: %d byzantine (fabricating), %d crashed\n", *byzantine, *crashed)

	counters, sum, err := plan.Execute(cluster, cluster, reg,
		fmt.Sprintf("(strategy=%s, drop=%.3f, latency=%v±%v)", shared.Strategy, *drop, *latency, *jitter))
	if err != nil {
		return err
	}
	knob := "-ops"
	if shared.Duration > 0 {
		knob = "-duration"
	}
	faultFree := *crashed == 0 && *drop == 0 && plan.Schedule.FaultFree() && plan.Adversary == nil
	switch {
	case !math.IsNaN(sum.StrategyLoad) && faultFree:
		// With the LP strategy installed and no fault-driven re-selection,
		// the measurement must track the LP value — this is the acceptance
		// check for the LP-to-live path, and it stays armed under a
		// fault-free schedule: churn instrumentation alone must not move
		// the measurement.
		if dev := sum.Peak/sum.StrategyLoad - 1; math.Abs(dev) > 0.10 {
			return fmt.Errorf("measured peak load %.4f is %+.1f%% from the LP L(Q) = %.4f (outside 10%%) — increase %s for convergence, or report a strategy bug",
				sum.Peak, 100*dev, sum.StrategyLoad, knob)
		}
	case math.IsNaN(sum.StrategyLoad) && *byzantine <= b && faultFree && sum.Peak < sum.Lower:
		fmt.Printf("  note: measurement below the lower bound — increase %s for convergence\n", knob)
	}

	withinBudget := *byzantine <= b && (plan.Adversary == nil || plan.Adversary.B <= b)
	if counters.Violations > 0 && withinBudget {
		return fmt.Errorf("safety violated within the masking bound — this is a bug")
	}
	if counters.Violations > 0 {
		fmt.Println("violations are expected: injected Byzantine faults exceed b")
	}
	return nil
}

// availabilityFlagConflicts returns the explicitly-set flags that
// -availability mode would otherwise silently ignore.
func availabilityFlagConflicts() []string {
	allowed := map[string]bool{"system": true, "b": true, "seed": true, "availability": true,
		"metrics-addr": true, "p-vector": true, "domains": true, "adversary": true}
	var out []string
	flag.Visit(func(f *flag.Flag) {
		if !allowed[f.Name] {
			out = append(out, f.Name)
		}
	})
	return out
}

// runAvailability is the -availability mode: measure the empirical
// system-crash rate through the live engine and hold it against the
// analytic F_p(Q) ladder, failing beyond 3σ of the exact value. The
// global -seed seeds the experiment unless the spec's seed= overrides it.
// -p-vector/-domains swap the i.i.d. draws for the heterogeneous model
// (exact companion: the generalized F); -adversary swaps them for
// adversarial placement (exact companion only for random placement).
func runAvailability(sys core.Construction, b int, spec, pVector, domains, adversary string, seed int64, reg *obs.Registry) error {
	cfg, err := harness.ParseAvailabilitySpec(spec, seed)
	if err != nil {
		return err
	}
	n := sys.UniverseSize()
	if pVector != "" {
		if cfg.PVec, err = measures.ParsePVector(pVector, n); err != nil {
			return err
		}
	}
	if domains != "" {
		if cfg.Domains, err = measures.ParseDomains(domains, n); err != nil {
			return err
		}
	}
	if adversary != "" {
		parsed, err := faults.ParseAdversary(adversary)
		if err != nil {
			return err
		}
		cfg.Adversary = &parsed
	}
	cfg.Registry = reg
	switch {
	case cfg.Adversary != nil:
		fmt.Printf("availability: %s adversary (budget %d) over %d epochs (seed %d)\n",
			cfg.Adversary.Kind, cfg.Adversary.B, cfg.Epochs, cfg.Seed)
	case len(cfg.PVec) > 0 || len(cfg.Domains) > 0:
		fmt.Printf("availability: heterogeneous model (%d-entry p vector, %d domains) over %d epochs (seed %d)\n",
			len(cfg.PVec), len(cfg.Domains), cfg.Epochs, cfg.Seed)
	default:
		fmt.Printf("availability: p=%g over %d epochs (seed %d)\n", cfg.P, cfg.Epochs, cfg.Seed)
	}
	res, err := harness.RunAvailability(sys, b, cfg)
	if err != nil {
		return err
	}
	harness.ReportAvailability(res)
	if res.ExactOK && !res.WithinSigma(3) {
		return fmt.Errorf("empirical crash rate %.4f outside 3σ of exact F_p = %.4f over %d epochs — availability regression",
			res.Rate, res.Exact, res.Epochs)
	}
	if !res.ExactOK {
		if res.Adversary != "" {
			fmt.Println("  note: no analytic crash rate for this placement strategy — measured rate only")
		} else {
			fmt.Println("  note: universe too large for exact F_p — no 3σ assertion (Monte Carlo shown above)")
		}
	}
	return nil
}
