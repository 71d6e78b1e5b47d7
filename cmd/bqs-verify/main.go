// bqs-verify builds a construction from a spec and verifies the paper's
// claims about it: its measures.Row (the Lemma 3.6 masking conditions,
// the Theorem 4.1 / Corollary 4.2 load bounds, f ≤ n·L, and F_p — exact
// where a closed form or enumeration reaches, Monte Carlo otherwise —
// against the Propositions 4.3–4.5 crash bounds), then — when the
// instance is small enough to enumerate — the closed-form parameters
// against exhaustive computation, and Definition 3.5 on sampled quorum
// pairs. It exits non-zero when any check fails.
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

// verify prints the construction's row — one PASS/FAIL line per claim
// of measures.Row.Checks — and two audits a row does not hold: the
// closed-form parameters against enumeration, and Definition 3.5 on
// sampled quorum pairs. It returns an error naming the checks that failed.
func verify(sys core.Construction, p float64, trials int) error {
	rng := rand.New(rand.NewSource(1))
	row := measures.NewRow(sys)
	if err := row.Crash(p, trials, rng); err != nil {
		return err
	}
	fmt.Printf("== %s ==\n", row.System)
	fmt.Printf("n=%d  c=%d  IS=%d  MT=%d\n", row.N, row.C, row.IS, row.MT)
	fmt.Printf("masking bound b=%d, resilience f=%d\n", row.B, row.F)
	if row.Method == "mc" {
		fmt.Printf("F_%.3f ≈ %.4g ± %.2g (%d trials)\n", p, row.Fp, row.StdErr, trials)
	} else {
		fmt.Printf("F_%.3f = %.6g (%s)\n", p, row.Fp, row.Method)
	}

	var failed []string
	check := func(name string, ok bool) {
		status := "PASS"
		if !ok {
			status = "FAIL"
			failed = append(failed, name)
		}
		fmt.Printf("  [%s] %s\n", status, name)
	}
	for _, c := range row.Checks() {
		check(c.Claim+": "+c.Statement, c.Holds)
	}

	// Exhaustive cross-check when the construction supports enumeration
	// and the instance is small.
	if en, ok := sys.(core.Enumerator); ok {
		ex, err := en.Enumerate(50000)
		if err == nil {
			check("enumeration: c matches", ex.MinQuorumSize() == row.C)
			check("enumeration: IS matches", ex.MinIntersection() == row.IS)
			check("enumeration: MT matches", ex.MinTransversal() == row.MT)
		} else {
			fmt.Printf("  [skip] enumeration: %v\n", err)
		}
	}

	// Quorum-pair intersection audit (Definition 3.5, sampled).
	audit := 0
	for i := 0; i < 50; i++ {
		q1, err1 := sys.SelectQuorum(rng, bitset.New(row.N))
		q2, err2 := sys.SelectQuorum(rng, bitset.New(row.N))
		if err1 != nil || err2 != nil {
			continue
		}
		if q1.IntersectionCount(q2) >= 2*row.B+1 {
			audit++
		}
	}
	check(fmt.Sprintf("Def 3.5: sampled quorum pairs intersect in ≥ 2b+1 (50/50 → %d/50)", audit),
		audit == 50)
	if len(failed) > 0 {
		return fmt.Errorf("%s: %d checks failed: %s", row.System, len(failed), strings.Join(failed, "; "))
	}
	return nil
}
