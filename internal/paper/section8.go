package paper

import (
	"fmt"
	"math/rand"
	"strings"

	"bqs/internal/core"
	"bqs/internal/measures"
	"bqs/internal/systems"
)

// Section8Row compares one system of the Section 8 worked example (fixed
// n ≈ 1024, target load ≈ 1/4, element crash probability p = 1/8) against
// the paper's reported numbers.
type Section8Row struct {
	System     string
	N          int
	B          int
	F          int
	Load       float64
	PaperB     int
	PaperF     int
	PaperFp    string  // the bound as printed in the paper
	MeasuredFp float64 // our exact / Monte Carlo value
	StdErr     float64 // 0 for exact values
	Method     string
}

// Section8 reproduces the worked example with the paper's exact
// parameters: M-Grid (n=1024, b=15), boostFPP (n=1001, q=3, b=19), M-Path
// (4 LR + 4 TB paths, b=7), RT(4,3) depth 5 (b=15).
func Section8(trials int, seed int64) ([]Section8Row, error) {
	if trials <= 0 {
		trials = 10000
	}
	rng := rand.New(rand.NewSource(seed))
	const p = 0.125
	rows := make([]Section8Row, 0, 4)

	// M-Grid, n = 1024, b = 15 → 4 rows + 4 columns per quorum.
	mg, err := systems.NewMGrid(32, 15)
	if err != nil {
		return nil, err
	}
	mgMC, err := measures.CrashProbabilityMC(mg, p, trials, rng)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Section8Row{
		System: mg.Name(), N: mg.UniverseSize(),
		B: core.MaskingBoundFromParams(mg), F: core.Resilience(mg), Load: mg.Load(),
		PaperB: 15, PaperF: 28, PaperFp: "≥ 0.638",
		MeasuredFp: mgMC.Estimate, StdErr: mgMC.StdErr, Method: "mc",
	})

	// boostFPP, q = 3, b = 19, n = 1001.
	bf, err := systems.NewBoostFPP(3, 19)
	if err != nil {
		return nil, err
	}
	bfFp, err := bf.CrashProbability(p)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Section8Row{
		System: bf.Name(), N: bf.UniverseSize(),
		B: core.MaskingBoundFromParams(bf), F: core.Resilience(bf), Load: bf.Load(),
		PaperB: 19, PaperF: 79, PaperFp: "≤ 0.372",
		MeasuredFp: bfFp, Method: "exact",
	})

	// M-Path, 4 LR + 4 TB paths per quorum → b = 7, on the same 32×32 grid.
	mp, err := systems.NewMPath(32, 7)
	if err != nil {
		return nil, err
	}
	// M-Path crash events are rare at p = 1/8; Monte Carlo with the full
	// budget. A zero estimate means "below 1/trials resolution".
	mpTrials := trials / 4
	if mpTrials < 500 {
		mpTrials = 500
	}
	mpMC, err := measures.CrashProbabilityMC(mp, p, mpTrials, rng)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Section8Row{
		System: mp.Name(), N: mp.UniverseSize(),
		B: core.MaskingBoundFromParams(mp), F: core.Resilience(mp), Load: mp.Load(),
		PaperB: 7, PaperF: 29, PaperFp: "≤ 0.001",
		MeasuredFp: mpMC.Estimate, StdErr: mpMC.StdErr, Method: "mc",
	})

	// RT(4,3) of depth 5, n = 1024.
	rt, err := systems.NewRT(4, 3, 5)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Section8Row{
		System: rt.Name(), N: rt.UniverseSize(),
		B: core.MaskingBoundFromParams(rt), F: core.Resilience(rt), Load: rt.Load(),
		PaperB: 15, PaperF: 31, PaperFp: "≤ 0.0001",
		MeasuredFp: rt.CrashProbability(p), Method: "recurrence",
	})

	return rows, nil
}

// FormatSection8 renders the comparison table.
func FormatSection8(rows []Section8Row) string {
	var sb strings.Builder
	sb.WriteString("Section 8 worked example: n ≈ 1024, L ≈ 1/4, p = 1/8\n")
	fmt.Fprintf(&sb, "%-20s %6s %9s %9s %8s %12s %14s %-10s\n",
		"System", "n", "b(paper)", "f(paper)", "L", "Fp(paper)", "Fp(measured)", "method")
	sb.WriteString(strings.Repeat("-", 96) + "\n")
	for _, r := range rows {
		fp := fmt.Sprintf("%.2e", r.MeasuredFp)
		if r.StdErr > 0 {
			fp = fmt.Sprintf("%.2e±%.0e", r.MeasuredFp, r.StdErr)
		}
		fmt.Fprintf(&sb, "%-20s %6d %3d (%3d) %3d (%3d) %8.4f %12s %14s %-10s\n",
			r.System, r.N, r.B, r.PaperB, r.F, r.PaperF, r.Load, r.PaperFp, fp, r.Method)
	}
	return sb.String()
}
