// bqs-verify builds a construction from a spec and verifies the paper's
// claims about it: the Lemma 3.6 masking conditions, the Theorem 4.1 /
// Corollary 4.2 load bounds, the Propositions 4.3–4.5 crash bounds, and —
// when the instance is small enough to enumerate — the closed-form
// parameters against exhaustive computation. It exits non-zero when any
// check fails.
//
// -system takes the same spec as bqs-sim's -system and a -reconfig target:
// a kind (threshold, grid, mgrid, rt, boostfpp, mpath, mpathedge, wheel,
// compose) sized from -b, kind:universe, or compose:OUTERxINNER.
//
// Usage (bare, it checks Figure 1's M-Grid: -system mgrid:49 -b 3):
//
//	bqs-verify -system mgrid:25 -b 1
//	bqs-verify -system rt:16 -b 1
//	bqs-verify -system threshold:13 -b 3
//	bqs-verify -system boostfpp -b 2
//	bqs-verify -system compose:5x5 -b 1
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"bqs/internal/bitset"
	"bqs/internal/core"
	"bqs/internal/measures"
	"bqs/internal/systems"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bqs-verify:", err)
		os.Exit(1)
	}
}

func run() error {
	system := flag.String("system", "mgrid:49", "construction spec, as bqs-sim -system: a kind sized from -b, kind:universe, or compose:OUTERxINNER")
	b := flag.Int("b", 3, "masking target b")
	p := flag.Float64("p", 0.125, "crash probability for bound checks")
	trials := flag.Int("trials", 3000, "Monte Carlo trials")
	// Not flag.Parse: a test's non-exiting FlagSet gets the error back.
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		return err
	}
	_, sys, err := systems.Parse(*system, *b)
	if err != nil {
		return err
	}
	return verify(sys, *p, *trials)
}

// verify prints one PASS/FAIL line per claim and returns an error naming
// the claims that failed.
func verify(sys core.Construction, p float64, trials int) error {
	fmt.Printf("== %s ==\n", sys.Name())
	nn := sys.UniverseSize()
	bb := core.MaskingBoundFromParams(sys)
	fmt.Printf("n=%d  c=%d  IS=%d  MT=%d\n", nn, sys.MinQuorumSize(), sys.MinIntersection(), sys.MinTransversal())
	fmt.Printf("masking bound b=%d, resilience f=%d\n", bb, core.Resilience(sys))

	var failed []string
	check := func(name string, ok bool) {
		status := "PASS"
		if !ok {
			status = "FAIL"
			failed = append(failed, name)
		}
		fmt.Printf("  [%s] %s\n", status, name)
	}

	check("Lemma 3.6: MT ≥ b+1 and IS ≥ 2b+1 at the declared bound",
		core.IsBMasking(sys, bb))

	// Load bounds.
	if ld, ok := sys.(core.AdvertisedLoad); ok {
		load := ld.Load()
		check(fmt.Sprintf("Thm 4.1: L=%.4f ≥ max{(2b+1)/c, c/n}=%.4f", load,
			measures.LoadLowerBound(nn, bb, sys.MinQuorumSize())),
			load >= measures.LoadLowerBound(nn, bb, sys.MinQuorumSize())-1e-9)
		check(fmt.Sprintf("Cor 4.2: L ≥ √((2b+1)/n)=%.4f", measures.GlobalLoadLowerBound(nn, bb)),
			load >= measures.GlobalLoadLowerBound(nn, bb)-1e-9)
	}

	// Crash bounds via Monte Carlo.
	rng := rand.New(rand.NewSource(1))
	mc, err := measures.CrashProbabilityMC(sys, p, trials, rng)
	if err != nil {
		return err
	}
	slack := 5*mc.StdErr + 1e-9
	fmt.Printf("F_%.3f ≈ %.4g ± %.2g (%d trials)\n", p, mc.Estimate, mc.StdErr, mc.Trials)
	check("Prop 4.3: F_p ≥ p^MT",
		mc.Estimate >= measures.CrashLowerBoundMT(sys.MinTransversal(), p)-slack)
	check("Prop 4.4: F_p ≥ p^(c−2b)",
		mc.Estimate >= measures.CrashLowerBoundMasking(sys.MinQuorumSize(), bb, p)-slack)
	if measures.Prop45Applies(sys) {
		check("Prop 4.5: F_p ≥ p^(b+1)",
			mc.Estimate >= measures.CrashLowerBoundB(bb, p)-slack)
	}

	// Exhaustive cross-check when the construction supports enumeration
	// and the instance is small.
	if en, ok := sys.(core.Enumerator); ok {
		ex, err := en.Enumerate(50000)
		if err == nil {
			check("enumeration: c matches", ex.MinQuorumSize() == sys.MinQuorumSize())
			check("enumeration: IS matches", ex.MinIntersection() == sys.MinIntersection())
			check("enumeration: MT matches", ex.MinTransversal() == sys.MinTransversal())
			if ex.UniverseSize() <= measures.MaxExactUniverse {
				exact, err := measures.CrashProbabilityExact(ex, p)
				if err == nil {
					fmt.Printf("exact F_%.3f = %.6g\n", p, exact)
				}
			}
		} else {
			fmt.Printf("  [skip] enumeration: %v\n", err)
		}
	}

	// Quorum-pair intersection audit (Definition 3.5, sampled).
	audit := 0
	for i := 0; i < 50; i++ {
		q1, err1 := sys.SelectQuorum(rng, bitset.New(nn))
		q2, err2 := sys.SelectQuorum(rng, bitset.New(nn))
		if err1 != nil || err2 != nil {
			continue
		}
		if q1.IntersectionCount(q2) >= 2*bb+1 {
			audit++
		}
	}
	check(fmt.Sprintf("Def 3.5: sampled quorum pairs intersect in ≥ 2b+1 (50/50 → %d/50)", audit),
		audit == 50)
	if len(failed) > 0 {
		return fmt.Errorf("%s: %d checks failed: %s", sys.Name(), len(failed), strings.Join(failed, "; "))
	}
	return nil
}
