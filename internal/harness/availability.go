package harness

// The availability experiment closes the measurement loop for the paper's
// second headline quantity. PR 3 made measured load converge to the LP
// value L(Q); this file does the same for crash probability F_p(Q)
// (Definition 3.10): many seeded epochs each draw an i.i.d. crash pattern
// at probability p, a client runs the real protocol against it, and an
// epoch counts as a system crash exactly when the engine reports
// ErrNoLiveQuorum — every quorum intersects a set of servers the client
// probed and found dead. The empirical rate is then laid next to the
// analytic ladder: CrashProbabilityExact (universes ≤ 24), the Monte
// Carlo estimate, and the lower bounds of Propositions 4.3–4.5.
//
// The detection is exact, not approximate: client suspicion only ever
// contains genuinely crashed servers (the epoch network is lossless), the
// picker declares ErrNoLiveQuorum precisely when every quorum intersects
// the suspects, and probe-on-forgive re-admits any suspect that answers —
// so an epoch crashes if and only if its sampled pattern kills every
// quorum, the same event Definition 3.10 integrates over. That is what
// makes the binomial 3σ acceptance check against the exact F_p sound.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"bqs/internal/bitset"
	"bqs/internal/core"
	"bqs/internal/faults"
	"bqs/internal/measures"
	"bqs/internal/obs"
	"bqs/internal/sim"
)

// AvailabilityConfig shapes an availability experiment.
type AvailabilityConfig struct {
	// P is the i.i.d. per-server crash probability of Definition 3.10.
	// ParseAvailabilitySpec leaves it at -1 when the spec has no p= field,
	// so heterogeneous and adversarial configs can omit it.
	P float64
	// PVec, when non-empty, replaces the scalar P with a per-server crash
	// probability vector (the heterogeneous generalization of 3.10).
	PVec []float64
	// Domains adds correlated failure domains on top of the independent
	// per-server probabilities: each domain fires as one Bernoulli and
	// takes all its members down together.
	Domains []measures.Domain
	// Adversary, when set, replaces the stochastic crash draws entirely:
	// each epoch the adversary places its budget of faults itself (random
	// placement, targeted at the loaded servers, or timing-keyed), and the
	// measured rate is the availability under that placement strategy.
	Adversary *faults.AdversaryConfig
	// Epochs is how many crash patterns are drawn and driven.
	Epochs int
	// Seed makes the whole experiment reproducible (pattern draws, quorum
	// selection, and the Monte Carlo companion estimate).
	Seed int64
	// MCTrials sizes the CrashProbabilityMC companion (default 100000).
	MCTrials int
	// Registry, when set, instruments the experiment's cluster: every
	// epoch bumps bqs_system_epochs_total, every ErrNoLiveQuorum epoch
	// bumps bqs_system_crash_epochs_total, and the live
	// bqs_system_crash_rate gauge is their ratio — Definition 3.10
	// observed in real time. When the exact F_p(Q) is computable the
	// bqs_system_exact_crash_rate gauge is set next to it, so a /metrics
	// scrape shows the empirical rate converging on the analytic value.
	Registry *obs.Registry
}

// ParseAvailabilitySpec parses the CLI form "p=0.1,epochs=2000" with
// optional seed=N and mctrials=N fields. defaultSeed seeds the experiment
// when the spec has no seed= field, so the binaries' global -seed flag
// keeps meaning what it means everywhere else.
func ParseAvailabilitySpec(spec string, defaultSeed int64) (AvailabilityConfig, error) {
	cfg := AvailabilityConfig{P: -1, Epochs: 2000, Seed: defaultSeed, MCTrials: 100000}
	seenP := false
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, value, ok := strings.Cut(field, "=")
		if !ok {
			return AvailabilityConfig{}, fmt.Errorf("availability field %q is not key=value", field)
		}
		value = strings.TrimSpace(value)
		var err error
		switch strings.TrimSpace(key) {
		case "p":
			cfg.P, err = strconv.ParseFloat(value, 64)
			seenP = true
		case "epochs":
			cfg.Epochs, err = strconv.Atoi(value)
		case "seed":
			cfg.Seed, err = strconv.ParseInt(value, 10, 64)
		case "mctrials":
			cfg.MCTrials, err = strconv.Atoi(value)
		default:
			return AvailabilityConfig{}, fmt.Errorf("unknown availability key %q (want p, epochs, seed, mctrials)", key)
		}
		if err != nil {
			return AvailabilityConfig{}, fmt.Errorf("availability field %q: %w", field, err)
		}
	}
	// The inverted comparison also rejects NaN, which `< 0 || > 1` lets
	// through. A missing p= is legal here — the caller may still supply a
	// -p-vector, -domains, or -adversary; RunAvailability enforces that at
	// least one crash regime is configured.
	if seenP && !(cfg.P >= 0 && cfg.P <= 1) {
		return AvailabilityConfig{}, errors.New("availability spec needs p=<probability in [0,1]>")
	}
	if cfg.Epochs <= 0 {
		return AvailabilityConfig{}, errors.New("availability spec needs epochs > 0")
	}
	return cfg, nil
}

// failureModel assembles the failure model the config describes. The
// classic scalar regime is the uniform model at P, reported with
// hetero=false (an adversarial config draws no crashes at all, so its
// model goes unused).
func (cfg AvailabilityConfig) failureModel(n int) (model measures.FailureModel, hetero bool, err error) {
	if len(cfg.PVec) == 0 && len(cfg.Domains) == 0 {
		return measures.UniformModel(n, cfg.P), false, nil
	}
	model = measures.FailureModel{P: cfg.PVec, Domains: cfg.Domains}
	if len(model.P) == 0 {
		// Domains alone ride on an independent base of p (or 0) everywhere.
		base := 0.0
		if cfg.P >= 0 {
			base = cfg.P
		}
		model.P = measures.UniformModel(n, base).P
	} else if cfg.P >= 0 {
		return measures.FailureModel{}, false, errors.New("availability: give either p= or a p-vector, not both")
	}
	if err := model.Validate(n); err != nil {
		return measures.FailureModel{}, false, err
	}
	return model, true, nil
}

// AvailabilityResult is the outcome of an availability experiment: the
// measured system-crash rate with its analytic companions.
type AvailabilityResult struct {
	Epochs  int     // epochs driven
	Crashes int     // epochs the engine reported ErrNoLiveQuorum
	Rate    float64 // Crashes/Epochs — the empirical F_p(Q)
	StdErr  float64 // binomial standard error of Rate

	Exact   float64 // CrashProbabilityExact, when the universe allows it
	ExactOK bool    // whether Exact is populated (n ≤ 24 and enumerable)

	MC   measures.MCResult // Monte Carlo companion estimate
	MCOK bool

	LowerMT      float64 // Proposition 4.3: F_p ≥ p^MT
	LowerMasking float64 // Proposition 4.4: F_p ≥ p^(c−2b)
	LowerB       float64 // Proposition 4.5: F_p ≥ p^(b+1), when it applies
	Prop45       bool    // whether the Prop. 4.5 precondition holds

	// Hetero is true when the epochs drew from a per-server vector or
	// correlated-domain model rather than the scalar p; Exact/MC are then
	// the generalized F computed under that same model.
	Hetero bool
	// Adversary names the placement strategy when the epochs ran under an
	// adversary instead of stochastic draws ("" otherwise). Exact is then
	// only populated for the random adversary (uniform B-subsets), whose
	// crash rate is still an enumerable quantity.
	Adversary string
}

// WithinSigma reports whether the empirical rate lands within k binomial
// standard deviations of the exact F_p — the acceptance criterion the
// availability smoke test asserts with k = 3. It is false when no exact
// value is available.
func (r AvailabilityResult) WithinSigma(k float64) bool {
	if !r.ExactOK {
		return false
	}
	sigma := math.Sqrt(r.Exact * (1 - r.Exact) / float64(r.Epochs))
	return math.Abs(r.Rate-r.Exact) <= k*sigma
}

// availabilityEnumLimit caps quorum materialization for the exact F_p
// companion; small universes (≤ 24 servers) stay far under it.
const availabilityEnumLimit = 1 << 17

// RunAvailability drives the availability experiment against the real
// engine: one deterministic in-memory cluster, cfg.Epochs seeded epochs,
// each resetting every server to Correct, crashing the pattern drawn from
// the failure model (each server independently with probability cfg.P in
// the scalar regime) or placed by the adversary, and running one full
// write (both protocol phases) with a fresh client. Epochs whose write fails with
// ErrNoLiveQuorum are the system-crash count; any other failure is a bug
// and aborts the experiment.
func RunAvailability(sys core.Construction, b int, cfg AvailabilityConfig) (AvailabilityResult, error) {
	n := sys.UniverseSize()
	model, hetero, err := cfg.failureModel(n)
	if err != nil {
		return AvailabilityResult{}, err
	}
	switch {
	case cfg.Adversary != nil:
		if hetero || cfg.P >= 0 {
			return AvailabilityResult{}, errors.New("availability: an adversary replaces the p / p-vector / domain crash draws — give one or the other")
		}
	case !hetero && !(cfg.P >= 0 && cfg.P <= 1):
		return AvailabilityResult{}, errors.New("availability spec needs p=<probability in [0,1]> (or a p-vector, domains, or an adversary)")
	}
	opts := []sim.Option{sim.WithSeed(cfg.Seed)}
	if cfg.Registry != nil {
		opts = append(opts, sim.WithMetrics(cfg.Registry))
	}
	cluster, err := sim.NewCluster(sys, b, opts...)
	if err != nil {
		return AvailabilityResult{}, err
	}
	var adv *faults.Adversary
	if cfg.Adversary != nil {
		// Built once over the live cluster: the targeted scheduler reads the
		// LoadProfile the epochs themselves accumulate, so it homes in on
		// the servers the strategy actually uses as the experiment runs.
		adv, err = faults.NewAdversary(*cfg.Adversary, cluster, cluster, n)
		if err != nil {
			return AvailabilityResult{}, err
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := AvailabilityResult{Epochs: cfg.Epochs, Hetero: hetero}
	if cfg.Adversary != nil {
		res.Adversary = cfg.Adversary.Kind.String()
	}
	ctx := context.Background()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if adv != nil {
			mode := adv.Mode()
			victims := adv.PickVictims()
			isVictim := make(map[int]bool, len(victims))
			for _, v := range victims {
				isVictim[v] = true
			}
			for i := 0; i < n; i++ {
				behavior := sim.Correct
				if isVictim[i] {
					behavior = mode
				}
				cluster.Server(i).SetBehavior(behavior)
			}
		} else {
			dead := model.SampleDead(n, rng)
			for i := 0; i < n; i++ {
				behavior := sim.Correct
				if dead.Contains(i) {
					behavior = sim.Crashed
				}
				cluster.Server(i).SetBehavior(behavior)
			}
		}
		cl := cluster.NewClient(epoch)
		// Suspicion grows by at least one genuinely dead server per failed
		// attempt, so n+2 retries always suffice per phase; the margin keeps
		// the experiment honest rather than masking protocol regressions.
		cl.MaxRetries = 2*n + 8
		err := cl.Write(ctx, fmt.Sprintf("epoch-%d", epoch))
		switch {
		case err == nil:
		case errors.Is(err, core.ErrNoLiveQuorum):
			res.Crashes++
		default:
			return res, fmt.Errorf("availability epoch %d: unexpected failure: %w", epoch, err)
		}
	}
	res.Rate = float64(res.Crashes) / float64(res.Epochs)
	res.StdErr = math.Sqrt(res.Rate * (1 - res.Rate) / float64(res.Epochs))

	mcTrials := cfg.MCTrials
	if mcTrials <= 0 {
		mcTrials = 100000
	}
	setExact := func(exact float64) {
		res.Exact, res.ExactOK = exact, true
		if cfg.Registry != nil {
			cfg.Registry.Gauge("bqs_system_exact_crash_rate").Set(exact)
		}
	}
	if adv != nil {
		// Only the random adversary has an enumerable crash rate: victims
		// are a uniform B-subset, so the rate is the fraction of B-subsets
		// that kill every quorum. Targeted and timing placements depend on
		// the live load profile, so they get no analytic companion.
		if cfg.Adversary.Kind == faults.AdversaryRandom && adv.Mode() == sim.Crashed {
			if exact, ok := adversaryExactRandom(sys, cfg.Adversary.B); ok {
				setExact(exact)
			}
		}
		return res, nil
	}
	if en, err := core.AsEnumerable(sys, availabilityEnumLimit); err == nil {
		if exact, err := measures.CrashProbabilityExactModel(en, model); err == nil {
			setExact(exact)
		}
	}
	if mc, err := measures.CrashProbabilityMCModel(sys, model, mcTrials, rand.New(rand.NewSource(cfg.Seed+1))); err == nil {
		res.MC, res.MCOK = mc, true
	}
	if !hetero {
		// The Prop. 4.3–4.5 ladder is stated for the i.i.d. model only.
		res.LowerMT = measures.CrashLowerBoundMT(sys.MinTransversal(), cfg.P)
		res.LowerMasking = measures.CrashLowerBoundMasking(sys.MinQuorumSize(), b, cfg.P)
		res.Prop45 = measures.Prop45Applies(sys)
		if res.Prop45 {
			res.LowerB = measures.CrashLowerBoundB(b, cfg.P)
		}
	}
	return res, nil
}

// adversaryExactRandom enumerates the random adversary's exact crash
// rate: the fraction of budget-sized victim subsets whose crash kills
// every quorum. ok is false when the system cannot be enumerated or the
// subset count is unreasonable.
func adversaryExactRandom(sys core.Construction, budget int) (float64, bool) {
	n := sys.UniverseSize()
	if budget < 0 || budget > n {
		return 0, false
	}
	en, err := core.AsEnumerable(sys, availabilityEnumLimit)
	if err != nil {
		return 0, false
	}
	subsets := 1.0
	for i := 0; i < budget; i++ {
		subsets *= float64(n-i) / float64(i+1)
	}
	if subsets > float64(availabilityEnumLimit) {
		return 0, false
	}
	quorums := en.Quorums()
	total, killed := 0, 0
	victims := bitset.New(n)
	var walk func(start, left int)
	walk = func(start, left int) {
		if left == 0 {
			total++
			dead := true
			for _, q := range quorums {
				if !q.Intersects(victims) {
					dead = false
					break
				}
			}
			if dead {
				killed++
			}
			return
		}
		for i := start; i <= n-left; i++ {
			victims.Add(i)
			walk(i+1, left-1)
			victims.Remove(i)
		}
	}
	walk(0, budget)
	return float64(killed) / float64(total), true
}

// ReportAvailability prints the shared availability result block: the
// empirical system-crash rate next to the analytic F_p ladder, and — when
// the exact value exists — the distance in binomial standard deviations
// the 3σ acceptance check is applied to.
func ReportAvailability(res AvailabilityResult) {
	regime := ""
	switch {
	case res.Adversary != "":
		regime = fmt.Sprintf(" under the %s adversary", res.Adversary)
	case res.Hetero:
		regime = " (heterogeneous model)"
	}
	fmt.Printf("availability: %d/%d epochs crashed%s — empirical F_p = %.4f (±%.4f binomial SE)\n",
		res.Crashes, res.Epochs, regime, res.Rate, res.StdErr)
	if res.ExactOK {
		sigma := math.Sqrt(res.Exact * (1 - res.Exact) / float64(res.Epochs))
		dist := math.Inf(1)
		if sigma > 0 {
			dist = math.Abs(res.Rate-res.Exact) / sigma
		} else if res.Rate == res.Exact {
			dist = 0
		}
		label := "F_p(Q) = %.4f exact (Definition 3.10), measured %.2fσ away\n"
		if res.Adversary != "" {
			label = "crash rate = %.4f exact (uniform victim subsets), measured %.2fσ away\n"
		}
		fmt.Printf("analytic:     "+label, res.Exact, dist)
	}
	if res.MCOK {
		fmt.Printf("monte carlo:  F_p ≈ %.4f ± %.4f (%d trials)\n", res.MC.Estimate, res.MC.StdErr, res.MC.Trials)
	}
	if res.Adversary == "" && !res.Hetero {
		fmt.Printf("lower bounds: F_p ≥ %.2e (Prop 4.3, p^MT)", res.LowerMT)
		fmt.Printf(", ≥ %.2e (Prop 4.4, p^(c−2b))", res.LowerMasking)
		if res.Prop45 {
			fmt.Printf(", ≥ %.2e (Prop 4.5, p^(b+1))", res.LowerB)
		}
		fmt.Println()
	}
}
