package faults

// The adversary is the scheduling counterpart of the churn engine: where
// FaultController replays a fixed timeline of WHO fails WHEN, an
// Adversary decides live WHICH servers to corrupt — the paper's failure
// model lets the b Byzantine servers be chosen by an adversary, and this
// seam makes that choice a pluggable strategy instead of the oblivious
// uniform draw every experiment so far used. Three schedulers ship:
//
//   - random: corrupt a fresh uniform b-subset each tick — the oblivious
//     baseline, matching what a static InjectFault pattern samples.
//   - targeted: corrupt the servers carrying the most access weight,
//     read live from the same atomics LoadProfile reports — the
//     worst-case adversary Definition 3.10's availability analysis must
//     survive, and the one that separates balanced systems (Paths, M-Grid)
//     from load-concentrating ones (Wheel hubs).
//   - timing: hold the victim set fixed but flip its behavior between
//     ByzantineStale and ByzantineEquivocate keyed to the protocol's
//     phase counter, so corruption lands around the timestamp-collection
//     phase where stale replays hurt reads the most.
//
// Like FaultController, an Adversary drives any Flipper — the in-memory
// Cluster or the wire package's TCP client — so remote fleets face the
// same adversaries over wire flip items. It never corrupts more than B
// servers at once: victims leaving the set are restored to Correct
// before new ones are corrupted.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bqs/internal/sim"
)

// AdversaryKind names a victim-selection strategy.
type AdversaryKind int

const (
	// AdversaryRandom migrates the fault budget to a fresh uniform subset
	// each re-targeting round — the stochastic baseline.
	AdversaryRandom AdversaryKind = iota + 1
	// AdversaryTargeted concentrates the budget on the servers carrying
	// the most strategy weight, read live from the load profile.
	AdversaryTargeted
	// AdversaryTiming aims like targeted but keys the Byzantine mode to
	// the protocol phase: stale replays around timestamp collection,
	// equivocation around the store phase.
	AdversaryTiming
)

// String renders the kind in the form ParseAdversary accepts.
func (k AdversaryKind) String() string {
	switch k {
	case AdversaryRandom:
		return "random"
	case AdversaryTargeted:
		return "targeted"
	case AdversaryTiming:
		return "timing"
	}
	return fmt.Sprintf("AdversaryKind(%d)", int(k))
}

// LoadSource exposes live per-server access frequencies; Cluster's
// LoadProfile satisfies it, and the targeted adversary reads it each
// tick to re-aim at whoever the strategy is loading most right now.
type LoadSource interface {
	LoadProfile() []float64
}

// PhaseSource exposes the live quorum-access counter; the timing
// adversary uses its parity to land behavior flips around the
// timestamp-collection phase.
type PhaseSource interface {
	Phases() int64
}

// AdversaryConfig shapes an Adversary.
type AdversaryConfig struct {
	Kind AdversaryKind
	// B is how many servers are corrupt at any instant (the b of the
	// b-masking budget the experiment grants the adversary).
	B int
	// Behavior is the corruption mode. Zero picks the kind's default:
	// Crashed for random and targeted (availability pressure),
	// ByzantineStale for timing (which then alternates with
	// ByzantineEquivocate on its own).
	Behavior sim.Behavior
	// Interval is the re-targeting period (default 25ms).
	Interval time.Duration
	// Seed drives the random scheduler's victim draws.
	Seed int64
}

// ParseAdversary parses the CLI form: a kind name optionally followed by
// comma-separated key=value fields b=<int>, behavior=<ParseBehavior
// name>, interval=<duration>, seed=<int>. Examples:
//
//	"targeted"
//	"random,b=2,behavior=byz-fabricate,interval=100ms"
func ParseAdversary(spec string) (AdversaryConfig, error) {
	var cfg AdversaryConfig
	fields := strings.Split(spec, ",")
	switch strings.TrimSpace(fields[0]) {
	case "random":
		cfg.Kind = AdversaryRandom
	case "targeted":
		cfg.Kind = AdversaryTargeted
	case "timing":
		cfg.Kind = AdversaryTiming
	default:
		return AdversaryConfig{}, fmt.Errorf("faults: unknown adversary %q (want random, targeted, timing)", strings.TrimSpace(fields[0]))
	}
	for _, field := range fields[1:] {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, value, ok := strings.Cut(field, "=")
		if !ok {
			return AdversaryConfig{}, fmt.Errorf("faults: adversary field %q is not key=value", field)
		}
		value = strings.TrimSpace(value)
		var err error
		switch strings.TrimSpace(key) {
		case "b":
			cfg.B, err = strconv.Atoi(value)
		case "behavior":
			cfg.Behavior, err = sim.ParseBehavior(value)
		case "interval":
			cfg.Interval, err = time.ParseDuration(value)
		case "seed":
			cfg.Seed, err = strconv.ParseInt(value, 10, 64)
		default:
			return AdversaryConfig{}, fmt.Errorf("faults: unknown adversary key %q (want b, behavior, interval, seed)", key)
		}
		if err != nil {
			return AdversaryConfig{}, fmt.Errorf("faults: adversary field %q: %w", field, err)
		}
	}
	if cfg.B < 0 {
		return AdversaryConfig{}, fmt.Errorf("faults: adversary budget b=%d must be non-negative", cfg.B)
	}
	if cfg.Interval < 0 {
		return AdversaryConfig{}, fmt.Errorf("faults: adversary interval %v must be non-negative", cfg.Interval)
	}
	return cfg, nil
}

// Adversary corrupts up to B servers of an n-server fleet through a
// Flipper, re-choosing victims every Interval per its Kind. Construct
// with NewAdversary, start with Run.
type Adversary struct {
	injector
	cfg   AdversaryConfig
	loads LoadSource
	n     int

	rng     *rand.Rand
	current map[int]bool
	mode    sim.Behavior // what the current victims are corrupted as

	ticks atomic.Int64

	mu      sync.Mutex
	victims []int
}

// NewAdversary builds an adversary over an n-server fleet. loads may be
// nil except for the targeted kind, which re-aims off it; the timing
// kind uses it when present (for both aim and phase parity, if the
// source is also a PhaseSource) and falls back to fixed low indices and
// per-tick alternation otherwise.
func NewAdversary(cfg AdversaryConfig, f Flipper, loads LoadSource, n int) (*Adversary, error) {
	if f == nil {
		return nil, fmt.Errorf("faults: adversary needs a flipper")
	}
	if n <= 0 {
		return nil, fmt.Errorf("faults: adversary universe %d must be positive", n)
	}
	switch cfg.Kind {
	case AdversaryRandom, AdversaryTargeted, AdversaryTiming:
	default:
		return nil, fmt.Errorf("faults: unknown adversary kind %v", cfg.Kind)
	}
	if cfg.Kind == AdversaryTargeted && loads == nil {
		return nil, fmt.Errorf("faults: targeted adversary needs a load source")
	}
	if cfg.B < 0 || cfg.B > n {
		return nil, fmt.Errorf("faults: adversary budget b=%d outside [0,%d]", cfg.B, n)
	}
	if cfg.Behavior != 0 && (!sim.KnownBehavior(cfg.Behavior) || cfg.Behavior == sim.Correct || cfg.Behavior == sim.Restart) {
		return nil, fmt.Errorf("faults: adversary behavior %v must be a fault mode", cfg.Behavior)
	}
	if cfg.Behavior == 0 {
		if cfg.Kind == AdversaryTiming {
			cfg.Behavior = sim.ByzantineStale
		} else {
			cfg.Behavior = sim.Crashed
		}
	}
	if cfg.Interval == 0 {
		cfg.Interval = 25 * time.Millisecond
	}
	return &Adversary{
		injector: injector{f: f},
		cfg:      cfg,
		loads:    loads,
		n:        n,
		rng:      rand.New(rand.NewSource(cfg.Seed + adversaryStreamSalt)),
		current:  make(map[int]bool),
		mode:     cfg.Behavior,
	}, nil
}

// adversaryStreamSalt keeps the adversary's victim draws off the churn
// and client PRNG streams derived from the same run seed.
const adversaryStreamSalt = 0x510e527fade682d1

// PickVictims returns the next victim set (sorted, at most B servers)
// without applying it — exposed so tests can pin each scheduler's
// choice.
func (a *Adversary) PickVictims() []int {
	k := a.cfg.B
	if k > a.n {
		k = a.n
	}
	if k <= 0 {
		return nil
	}
	if a.cfg.Kind == AdversaryRandom {
		picks := append([]int(nil), a.rng.Perm(a.n)[:k]...)
		sort.Ints(picks)
		return picks
	}
	// targeted / timing: heaviest-loaded first, index as tie-break. An
	// all-zero profile (no traffic yet, or no load source) degrades to
	// the deterministic first k indices.
	weights := make([]float64, a.n)
	if a.loads != nil {
		if prof := a.loads.LoadProfile(); len(prof) == a.n {
			copy(weights, prof)
		}
	}
	order := make([]int, a.n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return weights[order[x]] > weights[order[y]]
	})
	picks := append([]int(nil), order[:k]...)
	sort.Ints(picks)
	return picks
}

// nextMode returns the corruption behavior for this tick: fixed for
// random/targeted, phase-keyed (or per-tick) stale/equivocate
// alternation for timing.
func (a *Adversary) nextMode() sim.Behavior {
	if a.cfg.Kind != AdversaryTiming {
		return a.cfg.Behavior
	}
	if ps, ok := a.loads.(PhaseSource); ok && ps != nil {
		// Phases counts one per quorum access; a write is timestamp
		// collection then store, so parity tracks which protocol phase the
		// fleet is around. Stale replays bite hardest when reads land on
		// the timestamp phase.
		if ps.Phases()%2 == 0 {
			return sim.ByzantineStale
		}
		return sim.ByzantineEquivocate
	}
	if a.ticks.Load()%2 == 0 {
		return sim.ByzantineStale
	}
	return sim.ByzantineEquivocate
}

// step applies one re-targeting round: restore victims leaving the set
// to Correct FIRST, then corrupt the newcomers, so the corrupt set never
// exceeds B at any instant.
func (a *Adversary) step(ctx context.Context) {
	next := a.PickVictims()
	mode := a.nextMode()
	nextSet := make(map[int]bool, len(next))
	for _, s := range next {
		nextSet[s] = true
	}
	for s := range a.current {
		if !nextSet[s] {
			a.flip(ctx, s, sim.Correct)
			delete(a.current, s)
		}
	}
	for _, s := range next {
		// Newcomers always need the flip; holdovers only when the timing
		// adversary switched modes under them.
		if !a.current[s] || mode != a.mode {
			a.flip(ctx, s, mode)
		}
		a.current[s] = true
	}
	a.mode = mode
	a.ticks.Add(1)
	a.mu.Lock()
	a.victims = next
	a.mu.Unlock()
}

// Run corrupts immediately, then re-targets every Interval until ctx is
// done. On exit it restores its victims to Correct with a short grace
// context, so a cancelled adversary leaves the fleet clean — the
// experiment boundary, not the adversary, decides when corruption ends.
func (a *Adversary) Run(ctx context.Context) error {
	a.step(ctx)
	ticker := time.NewTicker(a.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			grace, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			for s := range a.current {
				a.flip(grace, s, sim.Correct)
				delete(a.current, s)
			}
			cancel()
			a.mu.Lock()
			a.victims = nil
			a.mu.Unlock()
			return ctx.Err()
		case <-ticker.C:
			a.step(ctx)
		}
	}
}

// Victims returns the current victim set (sorted).
func (a *Adversary) Victims() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]int(nil), a.victims...)
}

// Ticks returns how many re-targeting rounds have run.
func (a *Adversary) Ticks() int64 { return a.ticks.Load() }

// Mode returns the corruption behavior the next step would apply —
// fixed for random/targeted, the live stale/equivocate alternation for
// timing. Epoch-style drivers use it to apply PickVictims themselves.
func (a *Adversary) Mode() sim.Behavior { return a.nextMode() }

// Interval returns the re-targeting period (after defaulting).
func (a *Adversary) Interval() time.Duration { return a.cfg.Interval }
