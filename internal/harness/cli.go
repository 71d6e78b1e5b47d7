package harness

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"time"

	"bqs/internal/core"
	"bqs/internal/faults"
	"bqs/internal/obs"
	"bqs/internal/sim"
	"bqs/internal/systems"
)

// Flags is the command line cmd/bqs-sim and cmd/bqs-client share: the
// system, the workload shape and the fault/resize drivers beside it.
// Declared once, so a flag's name, default and meaning cannot drift
// between the two binaries.
type Flags struct {
	System        string
	B             int
	Strategy      string
	Clients       int
	Ops           int
	Duration      time.Duration
	Timeout       time.Duration
	Seed          int64
	Keys          int
	KeyDist       string
	Batch         int
	FaultSchedule string
	Churn         string
	SuspicionTTL  time.Duration
	Adversary     string
	Reconfig      string
	MetricsAddr   string
}

// NewFlags returns the shared flags at their defaults; the arguments are
// the three defaults the binaries disagree on (bqs-sim: threshold, b=3,
// no deadline; bqs-client: mgrid, b=1, 2s so a dead shard cannot stall it).
func NewFlags(system string, b int, timeout time.Duration) *Flags {
	return &Flags{System: system, B: b, Timeout: timeout,
		Strategy: "uniform", Clients: 8, Ops: 100, Seed: 1, KeyDist: "uniform", Batch: 1}
}

// Register declares the shared flags on fs, with f's current values as
// their defaults.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.System, "system", f.System, "quorum system: "+strings.Join(systems.Kinds(), "|")+" sized from -b, or kind:universe, or compose:OUTERxINNER")
	fs.IntVar(&f.B, "b", f.B, "masking bound b")
	fs.StringVar(&f.Strategy, "strategy", f.Strategy, "quorum selection: uniform|optimal (optimal installs the Definition 3.8 LP strategy)")
	fs.IntVar(&f.Clients, "clients", f.Clients, "concurrent clients")
	fs.IntVar(&f.Ops, "ops", f.Ops, "operations per client, mixed ~50/50 writes and reads (ignored when -duration is set)")
	fs.DurationVar(&f.Duration, "duration", f.Duration, "time-bounded run: clients issue ops until this elapses")
	fs.DurationVar(&f.Timeout, "timeout", f.Timeout, "per-operation deadline (0 = none)")
	fs.Int64Var(&f.Seed, "seed", f.Seed, "random seed")
	fs.IntVar(&f.Keys, "keys", f.Keys, "key-space size: each op targets one of N keys (0 = the single default register)")
	fs.StringVar(&f.KeyDist, "key-dist", f.KeyDist, "key popularity: uniform|zipf:S (S > 1, e.g. zipf:1.1)")
	fs.IntVar(&f.Batch, "batch", f.Batch, "operations in flight per client via a Session; probes coalesce into batched frames (1 = blocking calls)")
	fs.StringVar(&f.FaultSchedule, "fault-schedule", f.FaultSchedule, "fault timeline \"100ms:3:crashed,600ms:3:correct\" replayed while the workload runs")
	fs.StringVar(&f.Churn, "churn", f.Churn, "stochastic churn \"mtbf=300ms,mttr=100ms[,down=behavior][,servers=lo-hi]\" over the -duration horizon")
	fs.DurationVar(&f.SuspicionTTL, "suspicion-ttl", f.SuspicionTTL, "client suspicion TTL so recovered servers regain traffic (0 = auto: 50ms when churn or an adversary is active)")
	fs.StringVar(&f.Adversary, "adversary", f.Adversary, "adversarial fault placement \"random|targeted|timing[,b=N][,behavior=MODE][,interval=D][,seed=N]\" run live beside the workload")
	fs.StringVar(&f.Reconfig, "reconfig", f.Reconfig, "resize schedule \"at=5s:mgrid:36[,at=20s:compose:6x6]\" replayed while the workload runs; each target keeps -b")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", f.MetricsAddr, "serve live telemetry on this address: /metrics (Prometheus), /vars, /events, /debug/pprof")
}

// Metrics returns the run's registry and a stop function. The registry
// always exists — instruments are cheap and Report reads its latency
// histograms — but the HTTP endpoint only binds under -metrics-addr.
func (f *Flags) Metrics() (*obs.Registry, func(), error) {
	reg := obs.NewRegistry()
	if f.MetricsAddr == "" {
		return reg, func() {}, nil
	}
	ms, err := obs.Serve(f.MetricsAddr, reg)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("metrics: http://%s/metrics (also /vars, /events, /debug/pprof)\n", ms.Addr())
	return reg, func() { ms.Close() }, nil
}

// Plan is a parsed run: what Execute drives against a cluster, and what
// the binaries' own verdicts read back (schedule, adversary budget).
type Plan struct {
	Sys       core.Construction
	Schedule  *faults.FaultSchedule   // nil: no churn
	Adversary *faults.AdversaryConfig // nil: no live adversary
	Reconfig  []ReconfigStep
	Strategy  sim.Option // nil under uniform selection
	Workload  Workload
}

// Plan parses every spec flag against the booted system, so a typo fails
// before a cluster is built or a connection dialed.
func (f *Flags) Plan(sys core.Construction) (*Plan, error) {
	if err := f.checkRanges(); err != nil {
		return nil, err
	}
	p := &Plan{Sys: sys}
	var err error
	if p.Schedule, err = BuildSchedule(f.FaultSchedule, f.Churn, sys.UniverseSize(), f.Duration, f.Seed); err != nil {
		return nil, err
	}
	if f.Adversary != "" {
		cfg, err := faults.ParseAdversary(f.Adversary)
		if err != nil {
			return nil, err
		}
		p.Adversary = &cfg
	}
	if p.Reconfig, err = ParseReconfigSchedule(f.Reconfig, f.B); err != nil {
		return nil, err
	}
	if p.Strategy, err = StrategyOption(f.Strategy); err != nil {
		return nil, err
	}
	dist, err := ParseKeyDist(f.KeyDist)
	if err != nil {
		return nil, err
	}
	// An explicit -suspicion-ttl wins over the default.
	ttl := f.SuspicionTTL
	if ttl == 0 && (p.Schedule.Len() > 0 || p.Adversary != nil) {
		ttl = DefaultChurnSuspicionTTL
	}
	p.Workload = Workload{Clients: f.Clients, Ops: f.Ops, Duration: f.Duration, Timeout: f.Timeout,
		SuspicionTTL: ttl, Keys: f.Keys, Dist: dist, Batch: f.Batch, Seed: f.Seed}
	return p, nil
}

// checkRanges rejects a workload flag outside its range, so a typo cannot
// run a vacuous experiment that reports "0 ok ops" and exits 0, nor have
// its sign silently reinterpreted.
func (f *Flags) checkRanges() error {
	for _, c := range []struct {
		bad   bool
		flag  string
		value any
		want  string
	}{
		{f.Clients < 1, "clients", f.Clients, "at least 1"},
		{f.Ops < 0 || f.Ops == 0 && f.Duration == 0, "ops", f.Ops, "at least 1 unless -duration is set"},
		{f.Duration < 0, "duration", f.Duration, "non-negative"},
		{f.Timeout < 0, "timeout", f.Timeout, "non-negative (0 = none)"},
		{f.Keys < 0, "keys", f.Keys, "non-negative (0 = the single default register)"},
		{f.Batch < 1, "batch", f.Batch, "at least 1"},
		{f.SuspicionTTL < 0, "suspicion-ttl", f.SuspicionTTL, "non-negative (0 = auto)"},
	} {
		if c.bad {
			return fmt.Errorf("-%s %v: must be %s", c.flag, c.value, c.want)
		}
	}
	return nil
}

// Execute runs the plan against a built cluster: it prints the workload
// banner (detail is the binary's own parenthetical), runs the churn
// engine, the adversary and the resize schedule beside the workload, and
// stops all three before looking at any of their errors — a failed resize
// must not leave a controller flipping servers of a live remote fleet
// while the process unwinds. Flips go through f: the Cluster itself in
// memory, the wire transport (a flip item per flip) over TCP; the
// targeted adversary always aims with the cluster's own load profile, the
// access strategy it is attacking. The report describes the system the
// run ended on: after a resize its universe sizes the Theorem 4.1 bounds
// and its LP is what the current-epoch measurement must converge to.
func (p *Plan) Execute(cluster *sim.Cluster, f faults.Flipper, reg *obs.Registry, detail string) (Counters, Summary, error) {
	fmt.Printf("workload: %s %s\n", p.Workload.Describe(), detail)
	churn := StartChurn(f, p.Schedule, p.Workload.SuspicionTTL, reg)
	var adv *Driver
	if p.Adversary != nil {
		var err error
		if adv, err = StartAdversary(*p.Adversary, f, cluster, p.Sys.UniverseSize(), reg); err != nil {
			return Counters{}, Summary{}, errors.Join(err, churn.Stop())
		}
	}
	rec := StartReconfig(cluster, p.Reconfig)
	counters := Run(cluster, p.Workload)
	if err := errors.Join(rec.Stop(), adv.Stop(), churn.Stop()); err != nil {
		return counters, Summary{}, err
	}
	sys := p.Sys
	if hs, ok := cluster.System().(core.Construction); ok {
		sys = hs
	}
	return counters, Report(cluster, sys, cluster.B(), counters), nil
}
