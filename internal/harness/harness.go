// Package harness is the run path shared by cmd/bqs-sim (in-memory
// clusters) and cmd/bqs-client (networked clusters over the wire
// protocol). Both binaries advertise comparable measurements — same
// flags, same read/write mix, same fault and resize drivers, same
// counters, same report — so the code that produces them lives here once
// (Flags → Plan → Execute, over Run and Report): a change to the workload
// shape, the run orchestration or the load report changes both harnesses
// together, and their numbers stay commensurable.
package harness

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bqs/internal/core"
	"bqs/internal/faults"
	"bqs/internal/measures"
	"bqs/internal/obs"
	"bqs/internal/sim"
	"bqs/internal/systems"
)

// BuildSystem maps the CLI -system/-b pair to a construction, identically
// in both binaries: a systems.Parse spec — a bare kind sized for masking
// bound b, kind:universe, or compose:OUTERxINNER.
func BuildSystem(spec string, b int) (core.Construction, error) {
	_, sys, err := systems.Parse(spec, b)
	return sys, err
}

// StrategyOption maps the CLI -strategy flag to a cluster option,
// identically in both binaries. "uniform" returns a nil option — the
// default uniform survivor selection; "optimal" installs the LP-optimal
// access strategy (the system must be able to enumerate its quorums).
func StrategyOption(name string) (sim.Option, error) {
	switch name {
	case "uniform":
		return nil, nil
	case "optimal":
		return sim.WithOptimalStrategy(), nil
	}
	return nil, fmt.Errorf("unknown strategy %q (want uniform or optimal)", name)
}

// BuildSchedule merges the CLI's deterministic -fault-schedule timeline
// with its stochastic -churn model (which needs the -duration horizon to
// know how much timeline to generate) into one validated schedule bounded
// by the n-server universe, identically in both binaries. It returns nil
// when neither spec is given. For a churn spec it prints the model's
// steady-state down fraction — the p to hold the run against when
// comparing with the analytic F_p(Q).
func BuildSchedule(scheduleSpec, churnSpec string, n int, horizon time.Duration, seed int64) (*faults.FaultSchedule, error) {
	var events []faults.FaultEvent
	if scheduleSpec != "" {
		s, err := faults.ParseFaultSchedule(scheduleSpec)
		if err != nil {
			return nil, err
		}
		events = append(events, s.Events()...)
	}
	if churnSpec != "" {
		if horizon <= 0 {
			return nil, errors.New("-churn needs -duration for its horizon")
		}
		cc, err := faults.ParseChurn(churnSpec)
		if err != nil {
			return nil, err
		}
		s, err := cc.Schedule(n, horizon, seed)
		if err != nil {
			return nil, err
		}
		fmt.Printf("churn: stochastic model down %.1f%% of the time in steady state (compare F_p at p=%.3f)\n",
			100*cc.DownFraction(), cc.DownFraction())
		events = append(events, s.Events()...)
	}
	if events == nil {
		return nil, nil
	}
	s, err := faults.NewFaultSchedule(events)
	if err != nil {
		return nil, err
	}
	if max := s.MaxServer(); max >= n {
		return nil, fmt.Errorf("fault schedule touches server %d outside the %d-server universe", max, n)
	}
	return s, nil
}

// DefaultChurnSuspicionTTL is the suspicion TTL clients get when churn
// or a live adversary is active and the user did not set -suspicion-ttl:
// short enough that recovered servers regain traffic within a typical
// run, long enough that a still-dead server is not hammered with
// optimistic re-probes.
const DefaultChurnSuspicionTTL = 50 * time.Millisecond

// Driver runs one timeline beside a workload — the churn engine, a live
// adversary or a resize schedule — identically in both binaries: its
// goroutine runs under a cancel, and Stop cancels it at the run boundary,
// waits it out and prints its summary. A nil *Driver (nothing configured)
// stops as a no-op, so call sites need no branching.
type Driver struct {
	cancel context.CancelFunc
	done   chan error
	report func(runErr error) error // prints the summary once the goroutine is done
}

// startDriver runs run on its own goroutine; Stop hands its result to
// report. report reads what run wrote without a lock: it runs only after
// the receive from done, which orders it after run's return.
func startDriver(run func(context.Context) error, report func(error) error) *Driver {
	ctx, cancel := context.WithCancel(context.Background())
	d := &Driver{cancel: cancel, done: make(chan error, 1), report: report}
	go func() { d.done <- run(ctx) }()
	return d
}

// Stop ends the driver at the run boundary, waits its goroutine out and
// reports what it applied; on a nil driver it is a no-op. The error is
// the driver's own failure, if any.
func (d *Driver) Stop() error {
	if d == nil {
		return nil
	}
	d.cancel()
	return d.report(<-d.done)
}

// injector is what a flip driver runs: a FaultController or an Adversary.
type injector interface {
	Run(ctx context.Context) error
	FirstErr() error
}

// startFlips drives a fault injector under layer's name ("churn" or
// "adversary"). Stop prints the summary and the first miss; cancellation at
// the boundary is the normal way an injector outliving the workload ends
// and is not an error.
func startFlips(layer string, inj injector, summary func() string) *Driver {
	return startDriver(inj.Run, func(err error) error {
		fmt.Printf("%s: %s\n", layer, summary())
		if ferr := inj.FirstErr(); ferr != nil {
			fmt.Printf("%s: first miss: %v\n", layer, ferr)
		}
		if err != nil && !errors.Is(err, context.Canceled) {
			return fmt.Errorf("%s: %w", layer, err)
		}
		return nil
	})
}

// flipSeries is the OnFlip hook behind a flip driver's live series:
// bqs_<layer>_flips_total{to=<behavior>} per applied flip (so the mix of
// crash/restart/byzantine transitions is scrapable mid-run),
// bqs_<layer>_misses_total per flip the injector could not deliver, and
// an annotated event per miss. It is nil without a registry.
func flipSeries(layer string, reg *obs.Registry) func(int, sim.Behavior, error) {
	if reg == nil {
		return nil
	}
	misses := reg.Counter("bqs_" + layer + "_misses_total")
	return func(server int, b sim.Behavior, err error) {
		if err != nil {
			misses.Inc()
			reg.Eventf("%s: flip of server %d to %v missed: %v", layer, server, b, err)
			return
		}
		reg.Counter("bqs_"+layer+"_flips_total", "to", b.String()).Inc()
	}
}

// StartChurn prints the schedule banner and starts replaying it against
// the Flipper (a Cluster in bqs-sim, the wire transport in bqs-client),
// with the bqs_churn_* series on a non-nil registry. With no churn
// configured (a nil or empty schedule) it returns a nil driver.
func StartChurn(f faults.Flipper, s *faults.FaultSchedule, ttl time.Duration, reg *obs.Registry) *Driver {
	if s.Len() == 0 {
		return nil
	}
	fmt.Printf("churn: driving %d flips over %v (suspicion-ttl %v)\n", s.Len(), s.Horizon(), ttl)
	fc := faults.NewFaultController(f, s)
	fc.OnFlip = flipSeries("churn", reg)
	return startFlips("churn", fc, func() string {
		return fmt.Sprintf("%d flips applied, %d missed", fc.Flips(), fc.Misses())
	})
}

// StartAdversary builds the adversary over the given Flipper (a Cluster
// in bqs-sim, the wire transport in bqs-client) and starts its
// re-targeting loop, with the bqs_adversary_* series on a non-nil
// registry. loads feeds the targeted and timing schedulers and may be nil
// for the random one. Stop restores every victim to Correct on the way
// out.
func StartAdversary(cfg faults.AdversaryConfig, f faults.Flipper, loads faults.LoadSource, n int, reg *obs.Registry) (*Driver, error) {
	adv, err := faults.NewAdversary(cfg, f, loads, n)
	if err != nil {
		return nil, err
	}
	fmt.Printf("adversary: %s scheduler, budget %d, re-targeting every %v\n", cfg.Kind, cfg.B, adv.Interval())
	adv.OnFlip = flipSeries("adversary", reg)
	return startFlips("adversary", adv, func() string {
		return fmt.Sprintf("%d flips over %d rounds, %d missed", adv.Flips(), adv.Ticks(), adv.Misses())
	}), nil
}

// Workload shapes a mixed ~50/50 read/write run over a keyed object
// space.
type Workload struct {
	Clients  int
	Ops      int           // per client; ignored when Duration > 0
	Duration time.Duration // > 0: time-bounded run instead of op-bounded
	Timeout  time.Duration // per-operation deadline; 0 = none
	// SuspicionTTL is handed to every client (Client.SuspicionTTL): under
	// churn it is what lets recovered servers regain traffic instead of
	// staying suspected forever. Zero keeps the default (no aging).
	SuspicionTTL time.Duration
	// Keys sizes the key space: each operation targets a key drawn from
	// Dist. 0 keeps the original single-object workload (every operation
	// on the DefaultKey register).
	Keys int
	// Dist is the key-popularity distribution (uniform unless set).
	Dist KeyDist
	// Batch > 1 drives each client through a Session with that many
	// operations in flight, so concurrently issued probes coalesce into
	// batched transport frames; ≤ 1 keeps blocking one-at-a-time calls.
	Batch int
	// Seed decorrelates key sampling across runs (combined with the
	// client id, so clients draw independent key streams).
	Seed int64
}

// Describe returns the one-line workload summary both binaries print.
func (w Workload) Describe() string {
	shape := fmt.Sprintf("%d clients × %d ops", w.Clients, w.Ops)
	if w.Duration > 0 {
		shape = fmt.Sprintf("%d clients for %v", w.Clients, w.Duration)
	}
	if w.Keys > 0 {
		shape += fmt.Sprintf(", %d keys %s", w.Keys, w.Dist)
	}
	if w.Batch > 1 {
		shape += fmt.Sprintf(", batch %d", w.Batch)
	}
	return shape
}

// Counters tallies workload outcomes.
type Counters struct {
	Reads, Writes int64 // successful operations
	NoCandidates  int64 // reads with no b+1-vouched value
	Failures      int64 // errored operations (deadline, retries exhausted, …)
	Violations    int64 // reads that surfaced a fabricated value
	Elapsed       time.Duration
	// ReadLatency and WriteLatency are the cluster registry's per-op
	// latency histograms (bqs_client_read_seconds /
	// bqs_client_write_seconds), captured by Run so the report reads
	// quantiles from the same instruments the /metrics endpoint exposes
	// — one data source, no private reservoir. Nil when
	// the cluster was built without sim.WithMetrics; quantiles then
	// report 0. Note the histograms span the cluster's lifetime: a second
	// Run over the same cluster folds the first run's samples in.
	ReadLatency, WriteLatency *obs.Histogram
}

// LatencyQuantile returns the q-quantile (0 ≤ q ≤ 1) of the merged
// read+write operation-latency distribution, or 0 when the cluster was
// not instrumented. q=0.5 is the median p50, q=0.99 the tail p99 of the
// report's latency line. The estimate is histogram-backed, exact to within one
// bucket (≤19% relative with obs.DurationBuckets).
func (c Counters) LatencyQuantile(q float64) time.Duration {
	return obs.DurationQuantile(q, c.ReadLatency, c.WriteLatency)
}

// Total is every operation that ran to an outcome — the attempted count.
// It folds failures, no-candidates and violations in, so it must NOT be
// the throughput headline: a run that mostly times out would still report
// a high number. Use Succeeded for delivered throughput.
func (c Counters) Total() int64 {
	return c.Reads + c.Writes + c.NoCandidates + c.Failures + c.Violations
}

// Succeeded is every operation that completed its protocol — the
// throughput headline.
func (c Counters) Succeeded() int64 { return c.Reads + c.Writes }

// Run drives the workload against the cluster: w.Clients concurrent
// clients alternating writes and reads (client id + op index parity, so
// the fleet is always mixed) over keys drawn from w.Dist, each operation
// under its own deadline. With w.Batch > 1 every client works through a
// Session, keeping Batch operations in flight at once so their quorum
// probes coalesce into batched transport frames; otherwise it issues
// blocking calls one at a time. In duration mode every operation's
// context additionally derives from a run-wide deadline at
// start+Duration, so the run actually ends at the boundary instead of
// letting each client's last operation drift past it; an operation cut
// off by that run deadline is counted neither as a success nor as a
// failure — it simply did not fit in the window.
func Run(cluster *sim.Cluster, w Workload) Counters {
	var (
		wg                       sync.WaitGroup
		reads, writes            atomic.Int64
		violations, noCandidates atomic.Int64
		failures                 atomic.Int64
	)
	start := time.Now()
	runCtx, endRun := context.Background(), context.CancelFunc(func() {})
	if w.Duration > 0 {
		runCtx, endRun = context.WithDeadline(context.Background(), start.Add(w.Duration))
	}
	defer endRun()
	for id := 0; id < w.Clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := cluster.NewClient(id)
			cl.SuspicionTTL = w.SuspicionTTL
			// Per-client key stream: independent across clients, stable
			// for a given seed.
			rng := rand.New(rand.NewSource(w.Seed + (int64(id)+1)*0x9e3779b9))
			keyOf := w.Dist.Sampler(w.Keys, rng)
			// record tallies one completed operation (latency is observed
			// inside the client protocol itself, into the cluster registry's
			// histograms); it reports true when the operation was cut off at
			// the run boundary, which ends the client without counting the
			// op as an outcome.
			record := func(read bool, got sim.TaggedValue, err error) bool {
				switch {
				case read && errors.Is(err, sim.ErrNoCandidate):
					noCandidates.Add(1)
				case err != nil && runCtx.Err() != nil:
					return true // cut off at the run boundary; not an outcome
				case err != nil:
					failures.Add(1)
				case read && strings.HasPrefix(got.Value, sim.FabricatedValue):
					violations.Add(1)
				case read:
					reads.Add(1)
				default:
					writes.Add(1)
				}
				return false
			}
			if w.Batch > 1 {
				runSession(runCtx, cl, w, id, keyOf, record)
				return
			}
			for op := 0; ; op++ {
				if w.Duration > 0 {
					if runCtx.Err() != nil {
						return
					}
				} else if op >= w.Ops {
					return
				}
				key := KeyName(w.Keys, keyOf())
				opCtx, cancel := runCtx, context.CancelFunc(func() {})
				if w.Timeout > 0 {
					opCtx, cancel = context.WithTimeout(runCtx, w.Timeout)
				}
				if (id+op)%2 == 0 {
					err := cl.WriteKey(opCtx, key, fmt.Sprintf("c%d-op%04d", id, op))
					cancel()
					if record(false, sim.TaggedValue{}, err) {
						return
					}
					continue
				}
				got, err := cl.ReadKey(opCtx, key)
				cancel()
				if record(true, got, err) {
					return
				}
			}
		}(id)
	}
	wg.Wait()
	c := Counters{
		Reads:        reads.Load(),
		Writes:       writes.Load(),
		NoCandidates: noCandidates.Load(),
		Failures:     failures.Load(),
		Violations:   violations.Load(),
		Elapsed:      time.Since(start),
	}
	if reg := cluster.Registry(); reg != nil {
		// Get-or-create returns the very histograms the clients observed
		// into, so the quantiles below and a /metrics scrape agree exactly.
		c.ReadLatency = reg.Histogram("bqs_client_read_seconds", obs.DurationBuckets)
		c.WriteLatency = reg.Histogram("bqs_client_write_seconds", obs.DurationBuckets)
	}
	return c
}

// runSession is Run's batched mode for one client: keep w.Batch
// operations in flight through a Session, wait the window out, tally,
// repeat. Window boundaries are also flush boundaries, so every frame
// the batcher sends is as full as the workload allows.
func runSession(runCtx context.Context, cl *sim.Client, w Workload, id int,
	keyOf func() int, record func(bool, sim.TaggedValue, error) bool) {
	sess := cl.NewSession(sim.WithSessionBatch(w.Batch))
	defer sess.Close()
	type pendingOp struct {
		read   bool
		rf     *sim.ReadFuture
		wf     *sim.WriteFuture
		cancel context.CancelFunc
	}
	// Latency is stamped inside the client protocol at op completion (not
	// at Wait-return, which retires the window in issue order and would
	// inflate every fast op stuck behind a slow one), so this loop only
	// tallies outcomes.
	for op := 0; ; {
		if w.Duration > 0 {
			if runCtx.Err() != nil {
				return
			}
		} else if op >= w.Ops {
			return
		}
		k := w.Batch
		if w.Duration <= 0 && w.Ops-op < k {
			k = w.Ops - op
		}
		window := make([]pendingOp, 0, k)
		for j := 0; j < k; j++ {
			key := KeyName(w.Keys, keyOf())
			opCtx, cancel := runCtx, context.CancelFunc(func() {})
			if w.Timeout > 0 {
				opCtx, cancel = context.WithTimeout(runCtx, w.Timeout)
			}
			if (id+op+j)%2 == 0 {
				wf := sess.WriteAsync(opCtx, key, fmt.Sprintf("c%d-op%04d", id, op+j))
				window = append(window, pendingOp{wf: wf, cancel: cancel})
			} else {
				rf := sess.ReadAsync(opCtx, key)
				window = append(window, pendingOp{read: true, rf: rf, cancel: cancel})
			}
		}
		op += k
		stop := false
		for _, p := range window {
			if p.read {
				got, err := p.rf.Wait()
				p.cancel()
				stop = record(true, got, err) || stop
				continue
			}
			err := p.wf.Wait()
			p.cancel()
			stop = record(false, sim.TaggedValue{}, err) || stop
		}
		if stop {
			return
		}
	}
}

// faultFree reports whether no pick of the run had to route around a
// server, so the measured load is the picker's own: no operation failed,
// no server is crashed, and (on an instrumented cluster) no client ever
// suspected one — which also covers drops, churn and adversaries.
func faultFree(cluster *sim.Cluster, c Counters) bool {
	crashed, _ := cluster.FaultCounts()
	if c.Failures > 0 || crashed > 0 {
		return false
	}
	reg := cluster.Registry()
	return reg == nil || reg.Counter("bqs_client_suspicions_total").Value() == 0
}

// Summary is the result block Report printed, returned so
// harness-specific acceptance checks compare against exactly the numbers
// the user saw.
type Summary struct {
	Peak         float64 // measured busiest-server access frequency
	Lower        float64 // Theorem 4.1 lower bound on L(Q)
	StrategyLoad float64 // L_w(Q) of the installed strategy (the LP optimum under -strategy optimal); NaN under uniform selection
	Epoch        uint64  // configuration epoch the run ended on (0: never reconfigured)
	OffBound     bool    // fault-free, yet Peak is > 10% above the load the construction advertises
}

// Report prints the shared result block: outcome counts, successful
// throughput (with the attempted rate alongside, so a run that mostly
// times out cannot masquerade as fast), and the measured busiest-server
// frequency next to the paper's L(Q) lower bounds — plus, when a
// strategy-backed picker is installed, the L_w(Q) the strategy actually
// in use induces, which is what the measurement should converge to. A
// fault-free run whose busiest server sits more than 10% above the load
// the construction itself advertises is flagged OFF BOUND on the measured
// line: the picker is not running the strategy the theorem is about.
func Report(cluster *sim.Cluster, sys core.Construction, b int, c Counters) Summary {
	fmt.Printf("result: %d reads ok, %d writes ok, %d no-candidate, %d failed, %d VIOLATIONS\n",
		c.Reads, c.Writes, c.NoCandidates, c.Failures, c.Violations)
	secs := c.Elapsed.Seconds()
	fmt.Printf("throughput: %d ok ops in %v = %.0f ops/s (%d attempted = %.0f ops/s)\n",
		c.Succeeded(), c.Elapsed.Round(time.Millisecond), float64(c.Succeeded())/secs,
		c.Total(), float64(c.Total())/secs)
	if c.ReadLatency.Count()+c.WriteLatency.Count() > 0 {
		fmt.Printf("latency:    p50 %v, p95 %v, p99 %v\n",
			c.LatencyQuantile(0.50).Round(time.Microsecond),
			c.LatencyQuantile(0.95).Round(time.Microsecond),
			c.LatencyQuantile(0.99).Round(time.Microsecond))
	}
	n := sys.UniverseSize()
	s := Summary{
		Peak:         cluster.PeakLoad(),
		Lower:        measures.LoadLowerBound(n, b, sys.MinQuorumSize()),
		StrategyLoad: cluster.StrategyLoad(),
		Epoch:        cluster.Epoch(),
	}
	if s.Epoch > 0 {
		fmt.Printf("epoch:      %d (%s, n=%d)\n", s.Epoch, sys.Name(), n)
	}
	measured := fmt.Sprintf("measured load: busiest server at %.4f of quorum accesses", s.Peak)
	if adv, ok := sys.(core.AdvertisedLoad); ok && faultFree(cluster, c) && s.Peak > 1.10*adv.Load() {
		s.OffBound = true
		measured += fmt.Sprintf(" — OFF BOUND: %+.1f%% from the construction's load %.4f",
			100*(s.Peak/adv.Load()-1), adv.Load())
	}
	fmt.Println(measured)
	fmt.Printf("paper bounds:  L(Q) ≥ %.4f (Thm 4.1), ≥ %.4f (Cor 4.2)\n",
		s.Lower, measures.GlobalLoadLowerBound(n, b))
	if !math.IsNaN(s.StrategyLoad) {
		fmt.Printf("strategy:      L_w(Q) = %.4f, measured %+.1f%% from it\n",
			s.StrategyLoad, 100*(s.Peak/s.StrategyLoad-1))
	}
	return s
}
