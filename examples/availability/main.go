// Availability: sweep the element crash probability p for four
// constructions at n ≈ 1024 and watch the paper's Table 2 asymptotics
// materialize — M-Grid collapses (F_p → 1) even for small p, the
// Threshold and RT systems amplify reliability below their thresholds,
// and M-Path stays available all the way toward p = 1/2.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"bqs"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(7))

	th, err := bqs.NewMaskingThreshold(1021, 255)
	if err != nil {
		return err
	}
	mg, err := bqs.NewMGrid(32, 15)
	if err != nil {
		return err
	}
	rt, err := bqs.NewRT(4, 3, 5)
	if err != nil {
		return err
	}
	mp, err := bqs.NewMPath(32, 7)
	if err != nil {
		return err
	}

	ps := []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40}
	const trials = 600

	fmt.Println("F_p at n ≈ 1024 (Threshold & RT: exact; M-Grid & M-Path: Monte Carlo)")
	fmt.Printf("%6s %12s %12s %12s %12s\n", "p", "Threshold", "M-Grid", "RT(4,3)", "M-Path")
	for _, p := range ps {
		mgMC, err := bqs.CrashProbabilityMC(mg, p, trials, rng)
		if err != nil {
			return err
		}
		mpMC, err := bqs.CrashProbabilityMC(mp, p, trials/3, rng)
		if err != nil {
			return err
		}
		thFp, err := th.CrashProbability(p)
		if err != nil {
			return err
		}
		rtFp, err := rt.CrashProbability(p)
		if err != nil {
			return err
		}
		fmt.Printf("%6.2f %12.2e %12.3f %12.2e %12.3f\n", p, thFp, mgMC.Estimate, rtFp, mpMC.Estimate)
	}

	fmt.Println("\ninterpretation (paper, Table 2):")
	fmt.Println("  Threshold: exp(−Ω(f)) decay — Condorcet below 1/4.")
	fmt.Printf("  RT(4,3):  critical probability p_c = %.4f (Prop 5.6); watch the flip.\n",
		rt.CriticalProbability())
	fmt.Println("  M-Grid:   F_p → 1 — a single crash per row disables it.")
	fmt.Println("  M-Path:   available for every p < 1/2 (percolation, Prop 7.3).")
	return nil
}
