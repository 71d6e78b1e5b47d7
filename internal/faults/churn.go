// Package faults drives the paper's hybrid fault model against a live
// fleet: benign crashes that come and go (the churn engine) and b
// Byzantine servers an adversary places. It reaches a cluster only
// through the seams declared here — Flipper, LoadSource, PhaseSource —
// so the same injector drives the in-memory sim.Cluster and a remote
// fleet behind the wire package's client, and the sim package, which
// imports nothing from this one, stays the protocol engine alone.
package faults

// This file is the dynamic-fault engine: where InjectFault configures a
// failure pattern once at startup, the types here flip server behaviors
// WHILE a workload runs, so experiments can observe the system's live
// availability — the operational counterpart of the paper's crash
// probability F_p(Q) (Definition 3.10) — and exercise recovery, flapping
// and cascade scenarios that a static pattern cannot express.
//
// The design separates WHAT happens from WHO applies it: a FaultSchedule
// is a pure, deterministic timeline of (at, server, behavior) entries —
// either authored directly, parsed from a CLI spec, or generated by the
// seeded stochastic churn model of ChurnConfig — and a FaultController
// replays it against any Flipper. Cluster is a Flipper (in-memory flips),
// and so is the wire package's TCP client (remote flips via a wire flip
// item), so the same schedule drives both transports identically.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bqs/internal/measures"
	"bqs/internal/sim"
)

// FaultEvent is one entry of a fault timeline: at offset At from the start
// of the run, server Server switches to Behavior. Flipping back to Correct
// models recovery; the suspicion-rehabilitation machinery (Client.SuspicionTTL
// and probe-on-forgive) is what lets clients re-admit the recovered server.
type FaultEvent struct {
	At       time.Duration
	Server   int
	Behavior sim.Behavior
}

// String renders the event in the same at:server:behavior form
// ParseFaultSchedule accepts.
func (e FaultEvent) String() string {
	return fmt.Sprintf("%v:%d:%v", e.At, e.Server, e.Behavior)
}

// FaultSchedule is an immutable timeline of fault events, sorted by
// offset. It is the deterministic core of the churn engine: the stochastic
// model (ChurnConfig.Schedule) pre-generates one of these from a seed, so
// every churn run — random or hand-written — replays exactly.
type FaultSchedule struct {
	events []FaultEvent
}

// NewFaultSchedule validates the events (non-negative offsets and server
// indices, known behaviors) and returns them as a schedule sorted stably
// by offset, so same-instant events apply in the order given.
func NewFaultSchedule(events []FaultEvent) (*FaultSchedule, error) {
	sorted := make([]FaultEvent, len(events))
	copy(sorted, events)
	for _, e := range sorted {
		if e.At < 0 {
			return nil, fmt.Errorf("faults: fault event %v has negative offset", e)
		}
		if e.Server < 0 {
			return nil, fmt.Errorf("faults: fault event %v has negative server index", e)
		}
		if !sim.KnownBehavior(e.Behavior) {
			return nil, fmt.Errorf("faults: fault event at %v for server %d has unknown behavior %d",
				e.At, e.Server, int(e.Behavior))
		}
	}
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	return &FaultSchedule{events: sorted}, nil
}

// Events returns a copy of the timeline in firing order. Like every
// FaultSchedule accessor, it treats a nil receiver as the empty schedule,
// so "no churn configured" needs no guard at call sites.
func (s *FaultSchedule) Events() []FaultEvent {
	if s == nil {
		return nil
	}
	out := make([]FaultEvent, len(s.events))
	copy(out, s.events)
	return out
}

// Len returns the number of events (0 for a nil schedule).
func (s *FaultSchedule) Len() int {
	if s == nil {
		return 0
	}
	return len(s.events)
}

// Horizon returns the offset of the last event (zero for an empty or nil
// schedule) — the minimum run duration that fires everything.
func (s *FaultSchedule) Horizon() time.Duration {
	if s.Len() == 0 {
		return 0
	}
	return s.events[len(s.events)-1].At
}

// FaultFree reports whether the schedule never takes a server away from
// Correct — the case in which a churn-instrumented run must still behave
// (and measure) exactly like a run without the engine. An empty or nil
// schedule is vacuously fault-free.
func (s *FaultSchedule) FaultFree() bool {
	for _, e := range s.Events() {
		if e.Behavior != sim.Correct {
			return false
		}
	}
	return true
}

// MaxServer returns the largest server index the schedule touches, or -1
// for an empty or nil schedule; callers bound-check it against their
// universe.
func (s *FaultSchedule) MaxServer() int {
	max := -1
	for _, e := range s.Events() {
		if e.Server > max {
			max = e.Server
		}
	}
	return max
}

// ParseFaultSchedule parses the CLI form of a timeline: comma-separated
// at:servers:behavior entries, where at is a Go duration, servers is a
// single index or an inclusive lo-hi range, and behavior is a name
// ParseBehavior accepts. Example:
//
//	"100ms:3:crashed,250ms:0-2:byz-fabricate,600ms:3:correct"
//
// crashes server 3 at 100ms, turns servers 0-2 into fabricators at 250ms,
// and recovers server 3 at 600ms.
func ParseFaultSchedule(spec string) (*FaultSchedule, error) {
	var events []FaultEvent
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("faults: fault entry %q is not at:servers:behavior", entry)
		}
		at, err := time.ParseDuration(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("faults: fault entry %q: %w", entry, err)
		}
		lo, hi, err := measures.ParseRange(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("faults: fault entry %q: %w", entry, err)
		}
		behavior, err := sim.ParseBehavior(parts[2])
		if err != nil {
			return nil, fmt.Errorf("faults: fault entry %q: %w", entry, err)
		}
		for s := lo; s <= hi; s++ {
			events = append(events, FaultEvent{At: at, Server: s, Behavior: behavior})
		}
	}
	return NewFaultSchedule(events)
}

// ChurnConfig is the stochastic churn model: each selected server
// independently alternates exponentially-distributed up-times (mean MTBF)
// and down-times (mean MTTR), the classic alternating-renewal model the
// i.i.d. crash probability p of Definition 3.10 is the stationary snapshot
// of — at any instant a server is down with probability
// MTTR/(MTBF+MTTR). Schedule() pre-generates the whole timeline from a
// seed, so stochastic runs replay exactly.
type ChurnConfig struct {
	// MTBF is the mean up-time before a failure; MTTR the mean down-time
	// before recovery. Both must be positive.
	MTBF, MTTR time.Duration
	// Down is the behavior a server adopts while down (default Crashed;
	// any Byzantine behavior turns the model into Byzantine-then-recover
	// churn).
	Down sim.Behavior
	// Recover is how a down server comes back (default Correct, the
	// original flip-back-up semantics). Restart turns every recovery into
	// a process-level kill-and-recover: the server's store runs its
	// crash-recovery path before serving again, so a durable engine keeps
	// its state and a memory engine comes back amnesiac.
	Recover sim.Behavior
	// Servers restricts churn to the given indices; nil means the whole
	// universe passed to Schedule.
	Servers []int
	// Groups layer heterogeneity on top: each group either overrides the
	// up/down rates for its members (independent churn at different
	// speeds — old disks, hot racks) or, when Correlated, flips all its
	// members together as one failure domain (rack PDU, zone outage).
	// Group members are removed from the base process; a server may
	// belong to at most one group.
	Groups []ChurnGroup
}

// ChurnGroup is one heterogeneous slice of the churn model: its Servers
// follow their own MTBF/MTTR (zero means inherit the base rates), either
// independently or — when Correlated — as a single process that takes
// the whole group down and up at the same instants.
type ChurnGroup struct {
	Servers    []int
	MTBF, MTTR time.Duration
	Correlated bool
}

// rates returns the group's effective rates over a base config.
func (g ChurnGroup) rates(cc ChurnConfig) (mtbf, mttr time.Duration) {
	mtbf, mttr = g.MTBF, g.MTTR
	if mtbf == 0 {
		mtbf = cc.MTBF
	}
	if mttr == 0 {
		mttr = cc.MTTR
	}
	return mtbf, mttr
}

// DownFraction returns the stationary probability MTTR/(MTBF+MTTR) that a
// churned server is down at a random instant — the p to plug into the
// analytic F_p(Q) when comparing a churn run against Definition 3.10.
func (cc ChurnConfig) DownFraction() float64 {
	return float64(cc.MTTR) / float64(cc.MTBF+cc.MTTR)
}

// Schedule generates the seeded fault timeline over a universe of n
// servers up to the given horizon. Each server draws from its own stream
// derived from seed and its index (the same splitting discipline as
// Cluster's per-client rngs), so adding a server to Servers does not
// perturb the others' timelines.
func (cc ChurnConfig) Schedule(n int, horizon time.Duration, seed int64) (*FaultSchedule, error) {
	if cc.MTBF <= 0 || cc.MTTR <= 0 {
		return nil, fmt.Errorf("faults: churn needs positive MTBF and MTTR (got %v, %v)", cc.MTBF, cc.MTTR)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("faults: churn horizon %v must be positive", horizon)
	}
	down := cc.Down
	if down == 0 {
		down = sim.Crashed
	}
	if !sim.KnownBehavior(down) || down == sim.Correct || down == sim.Restart {
		return nil, fmt.Errorf("faults: churn down-behavior %v must be a fault mode", down)
	}
	back := cc.Recover
	if back == 0 {
		back = sim.Correct
	}
	if back != sim.Correct && back != sim.Restart {
		return nil, fmt.Errorf("faults: churn recover-behavior %v must be correct or restart", back)
	}
	grouped, err := cc.groupedServers(n)
	if err != nil {
		return nil, err
	}
	var events []FaultEvent
	appendRenewal := func(rng *rand.Rand, mtbf, mttr time.Duration, members ...int) {
		t, up := time.Duration(0), true
		for {
			mean := mtbf
			if !up {
				mean = mttr
			}
			t += time.Duration(rng.ExpFloat64() * float64(mean))
			if t >= horizon {
				return
			}
			next := down
			if !up {
				next = back
			}
			for _, s := range members {
				events = append(events, FaultEvent{At: t, Server: s, Behavior: next})
			}
			up = !up
		}
	}
	for _, s := range cc.baseServers(n) {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("faults: churn server %d outside universe [0,%d)", s, n)
		}
		if grouped[s] {
			continue
		}
		rng := rand.New(rand.NewSource(seed + churnStreamSalt + (int64(s)+1)*-0x61c8864680b583eb))
		appendRenewal(rng, cc.MTBF, cc.MTTR, s)
	}
	for g, grp := range cc.Groups {
		mtbf, mttr := grp.rates(cc)
		if grp.Correlated {
			// One stream drives the whole domain: every member flips at
			// the same instants, keyed by group position so reordering
			// member lists does not reshuffle the timeline.
			rng := rand.New(rand.NewSource(seed + churnDomainSalt + (int64(g)+1)*-0x61c8864680b583eb))
			appendRenewal(rng, mtbf, mttr, grp.Servers...)
			continue
		}
		for _, s := range grp.Servers {
			rng := rand.New(rand.NewSource(seed + churnStreamSalt + (int64(s)+1)*-0x61c8864680b583eb))
			appendRenewal(rng, mtbf, mttr, s)
		}
	}
	return NewFaultSchedule(events)
}

// baseServers lists the servers the base process covers (before group
// membership carves any out).
func (cc ChurnConfig) baseServers(n int) []int {
	if cc.Servers != nil {
		return cc.Servers
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// groupedServers validates the groups against the universe and returns
// which servers a group claims (and so leave the base process).
func (cc ChurnConfig) groupedServers(n int) (map[int]bool, error) {
	grouped := make(map[int]bool)
	for g, grp := range cc.Groups {
		if len(grp.Servers) == 0 {
			return nil, fmt.Errorf("faults: churn group %d has no servers", g)
		}
		mtbf, mttr := grp.rates(cc)
		if mtbf <= 0 || mttr <= 0 {
			return nil, fmt.Errorf("faults: churn group %d needs positive rates (got %v, %v)", g, mtbf, mttr)
		}
		for _, s := range grp.Servers {
			if s < 0 || s >= n {
				return nil, fmt.Errorf("faults: churn group %d server %d outside universe [0,%d)", g, s, n)
			}
			if grouped[s] {
				return nil, fmt.Errorf("faults: churn server %d claimed by two groups", s)
			}
			grouped[s] = true
		}
	}
	return grouped, nil
}

// FailureModel converts the churn model's stationary law into the
// measures package's heterogeneous crash model: independent per-server
// probabilities for base and rate-override servers, one failure domain
// per correlated group. This is the F_p to compare a heterogeneous churn
// run against, the way DownFraction is for the uniform model; its
// DownProbabilities are each server's stationary down marginal.
func (cc ChurnConfig) FailureModel(n int) (measures.FailureModel, error) {
	grouped, err := cc.groupedServers(n)
	if err != nil {
		return measures.FailureModel{}, err
	}
	m := measures.FailureModel{P: make([]float64, n)}
	for _, s := range cc.baseServers(n) {
		if s < 0 || s >= n {
			return measures.FailureModel{}, fmt.Errorf("faults: churn server %d outside universe [0,%d)", s, n)
		}
		if !grouped[s] {
			m.P[s] = cc.DownFraction()
		}
	}
	for _, grp := range cc.Groups {
		mtbf, mttr := grp.rates(cc)
		frac := float64(mttr) / float64(mtbf+mttr)
		if grp.Correlated {
			m.Domains = append(m.Domains, measures.Domain{
				Members: append([]int(nil), grp.Servers...),
				P:       frac,
			})
			continue
		}
		for _, s := range grp.Servers {
			m.P[s] = frac
		}
	}
	return m, nil
}

// churnStreamSalt offsets churn rng streams away from the per-client
// streams Cluster.clientRNG derives from the same run seed and splitting
// constant — without it, server i's fault timeline and client i's quorum
// selection would read the identical PRNG sequence, correlating churn
// with the very measurements it perturbs.
const churnStreamSalt = 0x6a09e667f3bcc909

// churnDomainSalt does the same for correlated-group streams: domain g's
// process must not alias server g's individual stream.
const churnDomainSalt = 0x3c6ef372fe94f82b

// ParseChurn parses the CLI form of the stochastic model. The spec is
// one or more ';'-separated clauses of comma-separated key=value pairs.
// The first clause is the base process: keys mtbf (required), mttr
// (required), down (a ParseBehavior name, default crashed), recover
// (correct, the default, or restart for kill-and-recover cycles through
// the store's crash-recovery path) and servers (an inclusive lo-hi range
// or single index, default the whole universe). Each further clause is a
// heterogeneous group: servers=<members> for an independent rate
// override or domain=<members> for a correlated failure domain whose
// members flip together, plus optional mtbf/mttr overrides (members may
// join '+'-separated ranges, e.g. domain=0-3+8). Examples:
//
//	"mtbf=300ms,mttr=100ms,down=crashed,recover=restart,servers=0-7"
//	"mtbf=1s,mttr=100ms; servers=4-7,mtbf=300ms; domain=0-3,mttr=200ms"
func ParseChurn(spec string) (ChurnConfig, error) {
	clauses := strings.Split(spec, ";")
	cc, err := parseChurnBase(clauses[0])
	if err != nil {
		return ChurnConfig{}, err
	}
	for _, clause := range clauses[1:] {
		if strings.TrimSpace(clause) == "" {
			continue
		}
		grp, err := parseChurnGroup(clause)
		if err != nil {
			return ChurnConfig{}, err
		}
		cc.Groups = append(cc.Groups, grp)
	}
	return cc, nil
}

func parseChurnBase(clause string) (ChurnConfig, error) {
	var cc ChurnConfig
	for _, field := range strings.Split(clause, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, value, ok := strings.Cut(field, "=")
		if !ok {
			return ChurnConfig{}, fmt.Errorf("faults: churn field %q is not key=value", field)
		}
		value = strings.TrimSpace(value)
		var err error
		switch strings.TrimSpace(key) {
		case "mtbf":
			cc.MTBF, err = time.ParseDuration(value)
		case "mttr":
			cc.MTTR, err = time.ParseDuration(value)
		case "down":
			cc.Down, err = sim.ParseBehavior(value)
		case "recover":
			// ParseBehavior maps "recover" and "correct" to Correct and
			// "restart" to Restart; Schedule rejects anything else.
			cc.Recover, err = sim.ParseBehavior(value)
		case "servers":
			// No universe yet: Schedule and FailureModel bound members.
			cc.Servers, err = measures.ParseMembers(value, math.MaxInt)
		default:
			return ChurnConfig{}, fmt.Errorf("faults: unknown churn key %q (want mtbf, mttr, down, recover, servers)", key)
		}
		if err != nil {
			return ChurnConfig{}, fmt.Errorf("faults: churn field %q: %w", field, err)
		}
	}
	if cc.MTBF <= 0 || cc.MTTR <= 0 {
		return ChurnConfig{}, errors.New("faults: churn spec needs mtbf=<dur> and mttr=<dur>")
	}
	return cc, nil
}

func parseChurnGroup(clause string) (ChurnGroup, error) {
	var grp ChurnGroup
	sawMembers := false
	for _, field := range strings.Split(clause, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, value, ok := strings.Cut(field, "=")
		if !ok {
			return ChurnGroup{}, fmt.Errorf("faults: churn group field %q is not key=value", field)
		}
		value = strings.TrimSpace(value)
		var err error
		switch strings.TrimSpace(key) {
		case "servers", "domain":
			if sawMembers {
				return ChurnGroup{}, fmt.Errorf("faults: churn group clause %q names members twice", clause)
			}
			sawMembers = true
			grp.Correlated = strings.TrimSpace(key) == "domain"
			grp.Servers, err = measures.ParseMembers(value, math.MaxInt)
		case "mtbf":
			grp.MTBF, err = time.ParseDuration(value)
		case "mttr":
			grp.MTTR, err = time.ParseDuration(value)
		default:
			return ChurnGroup{}, fmt.Errorf("faults: unknown churn group key %q (want servers, domain, mtbf, mttr)", key)
		}
		if err != nil {
			return ChurnGroup{}, fmt.Errorf("faults: churn group field %q: %w", field, err)
		}
	}
	if !sawMembers {
		return ChurnGroup{}, fmt.Errorf("faults: churn group clause %q needs servers= or domain=", clause)
	}
	return grp, nil
}

// Flipper applies a behavior flip to one server. Cluster implements it for
// in-memory fleets; the wire package's Client implements it for remote
// ones (each flip travels as a wire flip item to the shard hosting the
// server), so a FaultController or an Adversary drives either transport
// the same way.
type Flipper interface {
	Flip(ctx context.Context, server int, behavior sim.Behavior) error
}

// flipTimeout bounds each individual flip: a remote shard that holds its
// connection open without answering must cost one missed flip, not stall
// every flip behind it — recoveries addressed to healthy shards included.
const flipTimeout = 2 * time.Second

// injector is the flip path FaultController and Adversary share: it
// applies flips through a Flipper, counts them as applied or missed,
// keeps the first miss and reports every attempt to OnFlip.
type injector struct {
	f Flipper

	flips  atomic.Int64
	misses atomic.Int64

	errMu    sync.Mutex
	firstErr error

	// OnFlip, when set before Run, observes every attempted flip and the
	// error (nil on success) it returned — the hook tests and harnesses
	// use to log or assert on faults as they happen.
	OnFlip func(server int, b sim.Behavior, err error)
}

// flip applies one flip under flipTimeout. A flip that fails is counted
// and skipped — fault injection must keep going when the system it
// perturbs is partially dead, that being the point of the exercise. It
// returns ctx.Err() only when the flip failed because ctx itself ended.
func (in *injector) flip(ctx context.Context, server int, b sim.Behavior) error {
	flipCtx, cancel := context.WithTimeout(ctx, flipTimeout)
	err := in.f.Flip(flipCtx, server, b)
	cancel()
	if err != nil {
		// A flip cut short by the RUN context ending is the boundary,
		// not a miss; a flip that burned its own flipTimeout is.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		in.misses.Add(1)
		in.errMu.Lock()
		if in.firstErr == nil {
			in.firstErr = fmt.Errorf("faults: flip server %d to %v: %w", server, b, err)
		}
		in.errMu.Unlock()
	} else {
		in.flips.Add(1)
	}
	if in.OnFlip != nil {
		in.OnFlip(server, b, err)
	}
	return nil
}

// Flips returns how many flips have been applied successfully so far.
func (in *injector) Flips() int64 { return in.flips.Load() }

// Misses returns how many flips failed (and were skipped).
func (in *injector) Misses() int64 { return in.misses.Load() }

// FirstErr returns the error of the first failed flip, or nil.
func (in *injector) FirstErr() error {
	in.errMu.Lock()
	defer in.errMu.Unlock()
	return in.firstErr
}

// FaultController replays a FaultSchedule against a Flipper in real time:
// Run fires each event when its offset elapses, from a single goroutine,
// so flips are applied in timeline order.
type FaultController struct {
	injector
	schedule *FaultSchedule
}

// NewFaultController binds a schedule to the Flipper that will apply it.
func NewFaultController(f Flipper, s *FaultSchedule) *FaultController {
	return &FaultController{injector: injector{f: f}, schedule: s}
}

// Run replays the schedule, blocking until the last event has fired or
// ctx is done (returning ctx.Err() in that case — the normal way a
// workload-scoped controller ends when the run context is cancelled at
// the boundary). Run is one-shot; make a fresh controller to replay.
func (fc *FaultController) Run(ctx context.Context) error {
	start := time.Now()
	for _, ev := range fc.schedule.Events() {
		if delay := ev.At - time.Since(start); delay > 0 {
			timer := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			case <-timer.C:
			}
		} else if err := ctx.Err(); err != nil {
			return err
		}
		if err := fc.flip(ctx, ev.Server, ev.Behavior); err != nil {
			return err
		}
	}
	return nil
}
