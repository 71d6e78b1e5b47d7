package harness

import (
	"math"
	"testing"
	"time"

	"bqs/internal/faults"
	"bqs/internal/measures"
	"bqs/internal/sim"
)

func TestParseAvailabilitySpec(t *testing.T) {
	cfg, err := ParseAvailabilitySpec("p=0.1,epochs=500,seed=7,mctrials=1000", 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.P != 0.1 || cfg.Epochs != 500 || cfg.Seed != 7 || cfg.MCTrials != 1000 {
		t.Fatalf("cfg = %+v", cfg)
	}
	// A spec without p= is legal now — the caller may add a p-vector,
	// domains, or an adversary; the sentinel records that p was absent.
	cfg, err = ParseAvailabilitySpec("epochs=100", 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.P != -1 || cfg.Epochs != 100 {
		t.Fatalf("p-less spec = %+v", cfg)
	}
	if _, err := ParseAvailabilitySpec("p=1.5", 1); err == nil {
		t.Fatal("p outside [0,1] accepted")
	}
	if _, err := ParseAvailabilitySpec("p=0.1,epochs=0", 1); err == nil {
		t.Fatal("zero epochs accepted")
	}
	if _, err := ParseAvailabilitySpec("p=0.1,bogus=1", 1); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := ParseAvailabilitySpec("p=NaN", 1); err == nil {
		t.Fatal("p=NaN accepted")
	}
	cfg, err = ParseAvailabilitySpec("p=0.25", 42)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Epochs != 2000 || cfg.Seed != 42 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

// TestAvailabilityMatchesExactFp is the acceptance experiment for the
// availability loop: on M-Grid(4,1) at p = 0.1, the empirical system-crash
// rate measured by driving the real protocol through seeded crash epochs
// must land within 3 binomial standard deviations of the exact F_p(Q) of
// Definition 3.10 — the same assertion the CI smoke step makes through
// bqs-sim -availability.
func TestAvailabilityMatchesExactFp(t *testing.T) {
	sys, err := BuildSystem("mgrid", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := AvailabilityConfig{P: 0.1, Epochs: 2000, Seed: 1, MCTrials: 20000}
	res, err := RunAvailability(sys, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ExactOK {
		t.Fatal("no exact F_p for a 16-server universe")
	}
	sigma := math.Sqrt(res.Exact * (1 - res.Exact) / float64(res.Epochs))
	t.Logf("empirical %.4f vs exact %.4f (σ = %.4f, %.2fσ away; MC %.4f)",
		res.Rate, res.Exact, sigma, math.Abs(res.Rate-res.Exact)/sigma, res.MC.Estimate)
	if !res.WithinSigma(3) {
		t.Fatalf("empirical crash rate %.4f outside 3σ of exact F_p = %.4f (σ = %.4f)",
			res.Rate, res.Exact, sigma)
	}
	// The lower-bound ladder must hold for the exact value too.
	if res.Exact < res.LowerMT || res.Exact < res.LowerMasking {
		t.Fatalf("exact F_p = %.4g below a paper lower bound (MT %.4g, masking %.4g)",
			res.Exact, res.LowerMT, res.LowerMasking)
	}
	if res.Prop45 && res.Exact < res.LowerB {
		t.Fatalf("exact F_p = %.4g below Prop 4.5 bound %.4g", res.Exact, res.LowerB)
	}
}

// TestAvailabilityReproducible pins that the experiment is a pure function
// of its seed: same seed, same crash count; different seed, (almost
// surely) a different epoch trace but a statistically compatible rate.
func TestAvailabilityReproducible(t *testing.T) {
	sys, err := BuildSystem("mgrid", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := AvailabilityConfig{P: 0.3, Epochs: 300, Seed: 5, MCTrials: 1000}
	a, err := RunAvailability(sys, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAvailability(sys, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Crashes != b.Crashes {
		t.Fatalf("same seed, different crash counts: %d vs %d", a.Crashes, b.Crashes)
	}
	if a.Crashes == 0 {
		t.Fatalf("p=0.3 on MGrid(4,1) produced no crashed epochs in %d — detection broken?", cfg.Epochs)
	}
	// Sanity: at p = 0 the system never crashes; at p = 1 it always does.
	zero, err := RunAvailability(sys, 1, AvailabilityConfig{P: 0, Epochs: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if zero.Crashes != 0 {
		t.Fatalf("p=0 crashed %d epochs", zero.Crashes)
	}
	one, err := RunAvailability(sys, 1, AvailabilityConfig{P: 1, Epochs: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if one.Crashes != 20 {
		t.Fatalf("p=1 crashed only %d/20 epochs", one.Crashes)
	}
}

// TestAvailabilityRegimeValidation pins the mutual-exclusion rules: a
// config must pick exactly one crash regime.
func TestAvailabilityRegimeValidation(t *testing.T) {
	sys, err := BuildSystem("mgrid", 1)
	if err != nil {
		t.Fatal(err)
	}
	n := sys.UniverseSize()
	adv := &faults.AdversaryConfig{Kind: faults.AdversaryRandom, B: 2}
	bad := []AvailabilityConfig{
		{P: -1, Epochs: 10},                                           // no regime at all
		{P: 0.1, PVec: make([]float64, n), Epochs: 10},                // scalar and vector
		{P: 0.1, Adversary: adv, Epochs: 10},                          // scalar and adversary
		{P: -1, PVec: make([]float64, n), Adversary: adv, Epochs: 10}, // vector and adversary
		{P: -1, PVec: []float64{0.1}, Epochs: 10},                     // wrong-length vector
	}
	for i, cfg := range bad {
		if _, err := RunAvailability(sys, 1, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestHeterogeneousAvailabilityMatchesExactF is the acceptance experiment
// for the heterogeneous failure model: on the 16-server M-Grid(4,1) with
// a ramped per-server probability vector and one correlated domain, the
// empirical crash rate measured through the live protocol must land
// within 3 binomial standard deviations of the generalized exact F
// computed by CrashProbabilityExactModel — the heterogeneous analogue of
// the Definition 3.10 check above.
func TestHeterogeneousAvailabilityMatchesExactF(t *testing.T) {
	sys, err := BuildSystem("mgrid", 1)
	if err != nil {
		t.Fatal(err)
	}
	n := sys.UniverseSize()
	pvec, err := measures.ParsePVector("*:0.08,0-3:0.3", n)
	if err != nil {
		t.Fatal(err)
	}
	doms, err := measures.ParseDomains("4-7:0.1", n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := AvailabilityConfig{P: -1, PVec: pvec, Domains: doms, Epochs: 2000, Seed: 3, MCTrials: 20000}
	res, err := RunAvailability(sys, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hetero || !res.ExactOK {
		t.Fatalf("hetero=%v exactOK=%v — generalized exact companion missing", res.Hetero, res.ExactOK)
	}
	sigma := math.Sqrt(res.Exact * (1 - res.Exact) / float64(res.Epochs))
	t.Logf("hetero empirical %.4f vs exact %.4f (%.2fσ away; MC %.4f)",
		res.Rate, res.Exact, math.Abs(res.Rate-res.Exact)/sigma, res.MC.Estimate)
	if !res.WithinSigma(3) {
		t.Fatalf("hetero empirical crash rate %.4f outside 3σ of exact F = %.4f (σ = %.4f)",
			res.Rate, res.Exact, sigma)
	}
	if !res.MCOK {
		t.Fatal("no Monte Carlo companion under the heterogeneous model")
	}
	if mcDist := math.Abs(res.MC.Estimate - res.Exact); mcDist > 5*res.MC.StdErr {
		t.Fatalf("MC companion %.4f is %.4f from exact %.4f (> 5 SE)", res.MC.Estimate, mcDist, res.Exact)
	}
}

// TestAvailabilityScalarIsUniformModel pins that the scalar regime is the
// uniform failure model and nothing else: p = 0.1 and a uniform 0.1
// vector at one seed draw the same per-server Bernoullis in the same rng
// order and feed the same model to the companions, so the two
// experiments produce the identical epoch trace, exact value and Monte
// Carlo estimate, not merely compatible ones.
func TestAvailabilityScalarIsUniformModel(t *testing.T) {
	sys, err := BuildSystem("mgrid", 1)
	if err != nil {
		t.Fatal(err)
	}
	n := sys.UniverseSize()
	scalar, err := RunAvailability(sys, 1, AvailabilityConfig{P: 0.1, Epochs: 300, Seed: 5, MCTrials: 1000})
	if err != nil {
		t.Fatal(err)
	}
	vec, err := RunAvailability(sys, 1, AvailabilityConfig{
		P: -1, PVec: measures.UniformModel(n, 0.1).P, Epochs: 300, Seed: 5, MCTrials: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if scalar.Crashes != vec.Crashes {
		t.Fatalf("uniform vector diverged from scalar path: %d vs %d crashes", vec.Crashes, scalar.Crashes)
	}
	if !scalar.ExactOK || scalar.Exact != vec.Exact {
		t.Fatalf("exact companions diverged: %g vs %g (ok=%v)", scalar.Exact, vec.Exact, scalar.ExactOK)
	}
	if !scalar.MCOK || scalar.MC != vec.MC {
		t.Fatalf("Monte Carlo companions diverged: %+v vs %+v", scalar.MC, vec.MC)
	}
}

// TestAvailabilityTargetedBeatsRandom is the adversarial acceptance
// experiment: on the 12-server Wheel — the paper's minimal-load,
// fragile-availability extreme — a targeted adversary that aims its
// 2-crash budget at the most-loaded servers (the hub, under the default
// strategy) kills the system essentially every epoch, while the random
// adversary with the same budget only crashes it when the hub happens to
// be drawn (11/66 of subsets). The gap is the Section 5 trade-off made
// adversarial: load concentration is exactly what a targeted adversary
// exploits.
func TestAvailabilityTargetedBeatsRandom(t *testing.T) {
	sys, err := BuildSystem("wheel", 0)
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 400
	run := func(kind faults.AdversaryKind) AvailabilityResult {
		t.Helper()
		res, err := RunAvailability(sys, 0, AvailabilityConfig{
			P: -1, Epochs: epochs, Seed: 9, MCTrials: 1,
			Adversary: &faults.AdversaryConfig{Kind: kind, B: 2, Seed: 9},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	random := run(faults.AdversaryRandom)
	targeted := run(faults.AdversaryTargeted)
	t.Logf("random rate %.4f (exact %.4f, ok=%v) vs targeted rate %.4f",
		random.Rate, random.Exact, random.ExactOK, targeted.Rate)

	// The random adversary's crash rate is still an enumerable quantity —
	// the 3σ machinery stays armed for it.
	if !random.ExactOK {
		t.Fatal("no exact crash rate for the random adversary on an enumerable system")
	}
	if math.Abs(random.Exact-11.0/66.0) > 1e-12 {
		t.Fatalf("random exact = %g, want 11/66 (hub in a uniform 2-subset of 12)", random.Exact)
	}
	if !random.WithinSigma(3) {
		t.Fatalf("random empirical %.4f outside 3σ of exact %.4f", random.Rate, random.Exact)
	}
	// Targeted finds the hub and kills the system almost every epoch
	// (crash-epoch retries shift a little load onto the rim, so the aim can
	// wobble off the hub for an occasional epoch); random only ever reaches
	// 1/6 in expectation. The margin is enormous by design — this is the
	// measurable degradation the adversary seam must deliver.
	if targeted.Rate < 0.9 {
		t.Fatalf("targeted adversary only crashed %.4f of epochs — it failed to find the hub", targeted.Rate)
	}
	if targeted.Rate <= random.Rate+0.5 {
		t.Fatalf("targeted (%.4f) does not measurably degrade availability vs random (%.4f)",
			targeted.Rate, random.Rate)
	}
	if targeted.Adversary != "targeted" || random.Adversary != "random" {
		t.Fatalf("adversary labels = %q / %q", targeted.Adversary, random.Adversary)
	}
}

// TestWorkloadUnderTargetedByzantineAdversaryIsSafe closes the loop at
// the harness level: a live targeted adversary turning servers into
// colluding fabricators must never get a fabricated value past a reader
// during a real mixed workload. The budget is 1 under b = 3: a mobile
// adversary migrating mid-operation can expose a window to roughly one
// extra fabricator per straddled re-targeting, so B = 1 keeps even
// straddled windows far below the b+1 identical votes masking requires —
// the deterministic version of the exposure-scoped history checks in
// internal/sim, and the shape the CI TCP smoke mirrors.
func TestWorkloadUnderTargetedByzantineAdversaryIsSafe(t *testing.T) {
	sys, err := BuildSystem("threshold", 3)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := sim.NewCluster(sys, 3, sim.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	driver, err := StartAdversary(faults.AdversaryConfig{
		Kind: faults.AdversaryTargeted, B: 1, Behavior: sim.ByzantineFabricate,
		Interval: 5 * time.Millisecond,
	}, cluster, cluster, sys.UniverseSize(), nil)
	if err != nil {
		t.Fatal(err)
	}
	c := Run(cluster, Workload{Clients: 4, Ops: 150, SuspicionTTL: 5 * time.Millisecond, Seed: 11})
	if err := driver.Stop(); err != nil {
		t.Fatal(err)
	}
	if c.Violations != 0 {
		t.Fatalf("%d reads surfaced fabricated values under a within-budget adversary", c.Violations)
	}
	if c.Reads+c.Writes == 0 {
		t.Fatal("workload made no progress under the adversary")
	}
}
