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

type candidate struct {
	name string
	sys  bqs.Construction
	load float64
	fp   float64
	how  string
}

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
	var cands []candidate

	// M-Grid at the largest b whose load fits the budget.
	for b := d / 2; b >= 1; b-- {
		mg, err := bqs.NewMGrid(d, b)
		if err != nil || mg.Load() > *loadBudget {
			continue
		}
		mc, err := bqs.CrashProbabilityMC(mg, *p, *trials, rng)
		if err != nil {
			return err
		}
		cands = append(cands, candidate{mg.Name(), mg, mg.Load(), mc.Estimate, "mc"})
		break
	}

	// boostFPP(q=3, b) sized to ≈ n.
	if b := (*n/13 - 1) / 4; b >= 1 {
		bf, err := bqs.NewBoostFPP(3, b)
		if err == nil && bf.Load() <= *loadBudget {
			fp, err := bf.CrashProbability(*p)
			if err != nil {
				fp = bf.CrashUpperBound(*p)
			}
			cands = append(cands, candidate{bf.Name(), bf, bf.Load(), fp, "exact"})
		}
	}

	// M-Path at the largest feasible b within the budget.
	for b := d; b >= 1; b-- {
		mp, err := bqs.NewMPath(d, b)
		if err != nil || mp.Load() > *loadBudget {
			continue
		}
		mc, err := bqs.CrashProbabilityMC(mp, *p, *trials/4+1, rng)
		if err != nil {
			return err
		}
		cands = append(cands, candidate{mp.Name(), mp, mp.Load(), mc.Estimate, "mc"})
		break
	}

	// RT(4,3) at the depth closest to n.
	h := int(math.Round(math.Log(float64(*n)) / math.Log(4)))
	if h >= 1 {
		rt, err := bqs.NewRT(4, 3, h)
		if err == nil && rt.Load() <= *loadBudget {
			cands = append(cands, candidate{rt.Name(), rt, rt.Load(), rt.CrashProbability(*p), "exact"})
		}
	}

	// Threshold (always feasible, rarely within load budgets < 1/2).
	if b := (*n - 1) / 4; b >= 1 {
		th, err := bqs.NewMaskingThreshold(4*b+1, b)
		if err == nil && th.Load() <= *loadBudget {
			cands = append(cands, candidate{th.Name(), th, th.Load(), th.CrashProbability(*p), "exact"})
		}
	}

	if len(cands) == 0 {
		fmt.Printf("no construction meets load ≤ %.3f at n ≈ %d\n", *loadBudget, *n)
		return nil
	}

	// Rank by masking power, then availability.
	sort.Slice(cands, func(i, j int) bool {
		bi, bj := bqs.MaskingBound(cands[i].sys), bqs.MaskingBound(cands[j].sys)
		if bi != bj {
			return bi > bj
		}
		return cands[i].fp < cands[j].fp
	})

	fmt.Printf("deployment plan for n ≈ %d, p = %.3f, load budget %.3f\n\n", *n, *p, *loadBudget)
	fmt.Printf("%-22s %6s %5s %5s %8s %12s %-7s\n", "system", "n", "b", "f", "L", "F_p", "method")
	for _, c := range cands {
		fmt.Printf("%-22s %6d %5d %5d %8.4f %12.3e %-7s\n",
			c.name, c.sys.UniverseSize(), bqs.MaskingBound(c.sys), bqs.Resilience(c.sys),
			c.load, c.fp, c.how)
	}
	best := cands[0]
	fmt.Printf("\nhighest masking within budget: %s (b=%d)\n", best.name, bqs.MaskingBound(best.sys))
	var avail candidate
	for _, c := range cands {
		if avail.name == "" || c.fp < avail.fp {
			avail = c
		}
	}
	fmt.Printf("best availability within budget: %s (F_p ≈ %.2e)\n", avail.name, avail.fp)
	fmt.Println("\n(the paper's §8 conclusion for these defaults: RT(4,3) h=5 is the best balance)")
	return nil
}
