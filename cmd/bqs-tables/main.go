// bqs-tables regenerates the paper's evaluation tables: Table 2 (the
// properties of all six constructions at n ≈ 1024), the Section 8 worked
// example (n ≈ 1024, p = 1/8), the load-vs-lower-bound sweep, the RT
// critical probabilities, the resilience–load tradeoff, the
// crash-probability sweeps against Propositions 4.3–4.5, the Section 6
// boosting of regular systems, and the access-strategy ablation.
//
// Usage:
//
//	bqs-tables [-p 0.125] [-trials 4000] [-seed 1] [-only table2|section8|load|rt|tradeoff|crash|boosting|ablation]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"

	"bqs/internal/core"
	"bqs/internal/paper"
	"bqs/internal/systems"
)

// tables names the tables -only selects, in the order they print.
var tables = []string{"table2", "section8", "load", "rt", "tradeoff", "crash", "boosting", "ablation"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bqs-tables:", err)
		os.Exit(1)
	}
}

func run() error {
	p := flag.Float64("p", 0.125, "element crash probability for F_p columns")
	trials := flag.Int("trials", 4000, "Monte Carlo trials where no closed form exists")
	seed := flag.Int64("seed", 1, "random seed")
	only := flag.String("only", "", "print a single table: "+strings.Join(tables, "|"))
	// Not flag.Parse: a test's non-exiting FlagSet gets the error back.
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		return err
	}
	if *only != "" && !slices.Contains(tables, *only) {
		return fmt.Errorf("-only %s: no such table (want one of %s)", *only, strings.Join(tables, ", "))
	}

	want := func(name string) bool { return *only == "" || *only == name }

	if want("table2") {
		rows, err := paper.Table2(*p, *trials, *seed)
		if err != nil {
			return err
		}
		fmt.Println("== Table 2: constructions at n ≈ 1024 ==")
		fmt.Println(paper.FormatTable2(rows))
	}

	if want("section8") {
		rows, err := paper.Section8(*trials, *seed)
		if err != nil {
			return err
		}
		fmt.Println("== Section 8 worked example ==")
		fmt.Println(paper.FormatSection8(rows))
	}

	if want("load") {
		rows, err := paper.LoadVsLowerBound()
		if err != nil {
			return err
		}
		fmt.Println("== Load vs Theorem 4.1 / Corollary 4.2 lower bounds ==")
		fmt.Println(paper.FormatLoadRows(rows))
	}

	if want("rt") {
		rows, err := paper.RTCriticalProbabilities()
		if err != nil {
			return err
		}
		fmt.Println("== RT critical probabilities (Proposition 5.6) ==")
		fmt.Println(paper.FormatRTCritical(rows))
	}

	if want("tradeoff") {
		rows, err := paper.ResilienceLoadTradeoff()
		if err != nil {
			return err
		}
		fmt.Println("== Resilience–load tradeoff (Section 8) ==")
		fmt.Println(paper.FormatTradeoff(rows))
	}

	if want("crash") {
		rng := rand.New(rand.NewSource(*seed))
		ps := []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40}
		rt, err := systems.NewRT(4, 3, 5)
		if err != nil {
			return err
		}
		mg, err := systems.NewMGrid(32, 15)
		if err != nil {
			return err
		}
		fmt.Println("== Crash-probability sweeps vs lower bounds ==")
		for _, s := range []core.Construction{rt, mg} {
			rows, err := paper.CrashSweep(s, ps, *trials, rng)
			if err != nil {
				return err
			}
			fmt.Println(paper.FormatCrashRows(rows))
		}
	}

	if want("boosting") {
		rows, err := paper.BoostingTable(*p, *trials, *seed)
		if err != nil {
			return err
		}
		fmt.Println("== Boosting arbitrary regular systems (Section 6) ==")
		fmt.Println(paper.FormatBoosting(rows))
	}

	if want("ablation") {
		rows, err := paper.StrategyAblation(*trials, *seed)
		if err != nil {
			return err
		}
		fmt.Println("== Strategy ablation (Definition 3.8 is about strategies) ==")
		fmt.Println(paper.FormatAblation(rows))
	}
	return nil
}
