// Planner: the Section 8 deployment question — given a fleet size, an
// element failure probability and a load budget, which b-masking quorum
// system should you run? The program evaluates all candidate
// constructions at the requested size and ranks the feasible ones,
// reproducing the paper's n=1024, p=1/8, L≈1/4 discussion by default.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"sort"

	"bqs"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	n := flag.Int("n", 1024, "approximate number of servers")
	p := flag.Float64("p", 0.125, "element crash probability")
	loadBudget := flag.Float64("load", 0.25, "maximum acceptable load")
	trials := flag.Int("trials", 2000, "Monte Carlo trials for F_p")
	flag.Parse()

	d := int(math.Sqrt(float64(*n)))
	rng := rand.New(rand.NewSource(8))
	var cands []bqs.Row

	// consider ranks s when it was built and its load fits the budget,
	// with F_p from trials Monte Carlo draws where no exact value exists.
	consider := func(s bqs.Construction, err error, trials int) (bool, error) {
		if err != nil {
			return false, nil
		}
		r := bqs.NewRow(s)
		if r.Load > *loadBudget {
			return false, nil
		}
		if err := r.Crash(*p, trials, rng); err != nil {
			return false, err
		}
		cands = append(cands, r)
		return true, nil
	}

	// M-Grid at the largest b whose load fits the budget.
	for b := d / 2; b >= 1; b-- {
		mg, err := bqs.NewMGrid(d, b)
		ok, err := consider(mg, err, *trials)
		if err != nil {
			return err
		}
		if ok {
			break
		}
	}

	// boostFPP(q=3, b) sized to ≈ n.
	if b := (*n/13 - 1) / 4; b >= 1 {
		bf, err := bqs.NewBoostFPP(3, b)
		if _, err := consider(bf, err, *trials); err != nil {
			return err
		}
	}

	// M-Path at the largest feasible b within the budget; under crashes
	// its picks fall back to max-flow, so it gets a quarter of the trials.
	for b := d; b >= 1; b-- {
		mp, err := bqs.NewMPath(d, b)
		ok, err := consider(mp, err, *trials/4+1)
		if err != nil {
			return err
		}
		if ok {
			break
		}
	}

	// RT(4,3) at the depth closest to n.
	h := int(math.Round(math.Log(float64(*n)) / math.Log(4)))
	if h >= 1 {
		rt, err := bqs.NewRT(4, 3, h)
		if _, err := consider(rt, err, *trials); err != nil {
			return err
		}
	}

	// Threshold (always feasible, rarely within load budgets < 1/2).
	if b := (*n - 1) / 4; b >= 1 {
		th, err := bqs.NewMaskingThreshold(4*b+1, b)
		if _, err := consider(th, err, *trials); err != nil {
			return err
		}
	}

	if len(cands) == 0 {
		fmt.Printf("no construction meets load ≤ %.3f at n ≈ %d\n", *loadBudget, *n)
		return nil
	}

	// Rank by masking power, then availability.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].B != cands[j].B {
			return cands[i].B > cands[j].B
		}
		return cands[i].Fp < cands[j].Fp
	})

	fmt.Printf("deployment plan for n ≈ %d, p = %.3f, load budget %.3f\n\n", *n, *p, *loadBudget)
	fmt.Printf("%-22s %6s %5s %5s %8s %12s %-7s\n", "system", "n", "b", "f", "L", "F_p", "method")
	for _, c := range cands {
		fmt.Printf("%-22s %6d %5d %5d %8.4f %12.3e %-7s\n", c.System, c.N, c.B, c.F, c.Load, c.Fp, c.Method)
	}
	best := cands[0]
	fmt.Printf("\nhighest masking within budget: %s (b=%d)\n", best.System, best.B)
	avail := cands[0]
	for _, c := range cands {
		if c.Fp < avail.Fp {
			avail = c
		}
	}
	fmt.Printf("best availability within budget: %s (F_p ≈ %.2e)\n", avail.System, avail.Fp)
	fmt.Println("\n(the paper's §8 conclusion for these defaults: RT(4,3) h=5 is the best balance)")
	return nil
}
