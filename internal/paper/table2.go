// Package paper regenerates every table and figure in the paper's
// evaluation: Table 2 (the properties of all six constructions), the
// Section 8 worked example (n ≈ 1024, p = 1/8), Figures 1–3 (construction
// diagrams), and the per-proposition sweeps (load vs the Theorem 4.1 /
// Corollary 4.2 bounds, crash probability vs the Propositions 4.3–4.5
// bounds, the RT critical probability, percolation behavior of M-Path, and
// the Section 8 resilience–load tradeoff). The cmd/ tools print these
// tables; bench_test.go at the module root wraps each one in a Go
// benchmark.
package paper

import (
	"fmt"
	"math/rand"
	"strings"

	"bqs/internal/core"
	"bqs/internal/measures"
	"bqs/internal/systems"
)

// Table2Row is one construction's measured properties, mirroring the
// columns of Table 2 (b, f, L, F_p) plus the raw parameters they derive
// from.
type Table2Row struct {
	System    string
	N         int
	B         int     // masking bound (Corollary 3.7)
	F         int     // resilience f = MT − 1
	C         int     // smallest quorum
	Load      float64 // exact load of the construction's strategy
	LoadLower float64 // Corollary 4.2 bound √((2b+1)/n)
	Fp        float64 // measured/analytic crash probability at P
	FpMethod  string  // "exact", "recurrence", "mc", "row-bound"
	P         float64
}

// Table2Config fixes the instance sizes used to realize the asymptotic
// Table 2. Defaults (via DefaultTable2Config) target n ≈ 1024 so the rows
// are directly comparable with the Section 8 discussion.
type Table2Config struct {
	P        float64 // element crash probability for the F_p column
	Trials   int     // Monte Carlo trials where no closed form exists
	Seed     int64
	Side     int // grid side d (n = d²) for Grid/M-Grid/M-Path
	ThreshB  int // b for Threshold (n = 4b+1)
	GridB    int
	MGridB   int
	RTDepth  int
	MPathB   int
	FPPOrder int // q for boostFPP
	FPPB     int
}

// DefaultTable2Config reproduces the paper's n ≈ 1024 regime.
func DefaultTable2Config() Table2Config {
	return Table2Config{
		P:        0.125,
		Trials:   4000,
		Seed:     1,
		Side:     32,  // n = 1024
		ThreshB:  255, // n = 1021
		GridB:    10,  // ≤ (d−1)/3
		MGridB:   15,  // ≤ (√n−1)/2
		RTDepth:  5,   // RT(4,3), n = 1024
		MPathB:   15,
		FPPOrder: 3, // boostFPP(3, 19): n = 1001
		FPPB:     19,
	}
}

// Table2 builds all six rows.
func Table2(cfg Table2Config) ([]Table2Row, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	rows := make([]Table2Row, 0, 6)

	// Threshold [MR98a].
	th, err := systems.NewMaskingThreshold(4*cfg.ThreshB+1, cfg.ThreshB)
	if err != nil {
		return nil, fmt.Errorf("paper: table2 threshold: %w", err)
	}
	rows = append(rows, rowFromParams(th, th.Load(), th.CrashProbability(cfg.P), "exact", cfg.P))

	// Grid [MR98a]: F_p via Monte Carlo (no closed form).
	grid, err := systems.NewGrid(cfg.Side, cfg.GridB)
	if err != nil {
		return nil, fmt.Errorf("paper: table2 grid: %w", err)
	}
	gmc, err := measures.CrashProbabilityMC(grid, cfg.P, cfg.Trials, rng)
	if err != nil {
		return nil, err
	}
	rows = append(rows, rowFromParams(grid, grid.Load(), gmc.Estimate, "mc", cfg.P))

	// M-Grid (§5.1).
	mgrid, err := systems.NewMGrid(cfg.Side, cfg.MGridB)
	if err != nil {
		return nil, fmt.Errorf("paper: table2 m-grid: %w", err)
	}
	mmc, err := measures.CrashProbabilityMC(mgrid, cfg.P, cfg.Trials, rng)
	if err != nil {
		return nil, err
	}
	rows = append(rows, rowFromParams(mgrid, mgrid.Load(), mmc.Estimate, "mc", cfg.P))

	// RT(4,3) (§5.2): exact recurrence.
	rt, err := systems.NewRT(4, 3, cfg.RTDepth)
	if err != nil {
		return nil, fmt.Errorf("paper: table2 rt: %w", err)
	}
	rows = append(rows, rowFromParams(rt, rt.Load(), rt.CrashProbability(cfg.P), "recurrence", cfg.P))

	// boostFPP (§6): exact via Theorem 4.7 composition (plane enumerable).
	bf, err := systems.NewBoostFPP(cfg.FPPOrder, cfg.FPPB)
	if err != nil {
		return nil, fmt.Errorf("paper: table2 boostFPP: %w", err)
	}
	bfp, err := bf.CrashProbability(cfg.P)
	method := "exact"
	if err != nil {
		bfp = bf.CrashUpperBound(cfg.P)
		method = "upper-bound"
	}
	rows = append(rows, rowFromParams(bf, bf.Load(), bfp, method, cfg.P))

	// M-Path (§7): Monte Carlo.
	mp, err := systems.NewMPath(cfg.Side, cfg.MPathB)
	if err != nil {
		return nil, fmt.Errorf("paper: table2 m-path: %w", err)
	}
	pmc, err := measures.CrashProbabilityMC(mp, cfg.P, cfg.Trials/4+1, rng)
	if err != nil {
		return nil, err
	}
	rows = append(rows, rowFromParams(mp, mp.Load(), pmc.Estimate, "mc", cfg.P))

	return rows, nil
}

func rowFromParams(s core.Construction, load, fp float64, method string, p float64) Table2Row {
	b := core.MaskingBoundFromParams(s)
	return Table2Row{
		System:    s.Name(),
		N:         s.UniverseSize(),
		B:         b,
		F:         core.Resilience(s),
		C:         s.MinQuorumSize(),
		Load:      load,
		LoadLower: measures.GlobalLoadLowerBound(s.UniverseSize(), b),
		Fp:        fp,
		FpMethod:  method,
		P:         p,
	}
}

// FormatTable2 renders rows as a paper-style text table.
func FormatTable2(rows []Table2Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %6s %5s %5s %6s %8s %8s %10s %-10s\n",
		"System", "n", "b", "f", "c", "L", "L-bound", "F_p", "method")
	sb.WriteString(strings.Repeat("-", 92) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-22s %6d %5d %5d %6d %8.4f %8.4f %10.3e %-10s\n",
			r.System, r.N, r.B, r.F, r.C, r.Load, r.LoadLower, r.Fp, r.FpMethod)
	}
	fmt.Fprintf(&sb, "(F_p at element crash probability p = %.3f)\n", rows[0].P)
	return sb.String()
}
