package paper

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"bqs/internal/core"
	"bqs/internal/measures"
	"bqs/internal/systems"
)

// LoadVsLowerBound sweeps each construction family across sizes and
// reports how close its load sits to the masking lower bounds — the
// quantitative content of the optimality claims in Propositions 5.2, 5.5,
// 6.2 and 7.2.
func LoadVsLowerBound() ([]measures.Row, error) {
	var c constructions
	for _, b := range []int{4, 16, 64} {
		c.add(systems.NewMaskingThreshold(4*b+1, b))
	}
	for _, d := range []int{16, 32, 64} {
		c.add(systems.NewGrid(d, (d-1)/6))
		c.add(systems.NewMGrid(d, d/2-1))
		c.add(systems.NewMPath(d, d/3))
	}
	for _, h := range []int{3, 4, 5} {
		c.add(systems.NewRT(4, 3, h))
	}
	for _, qb := range [][2]int{{2, 3}, {3, 7}, {5, 19}} {
		c.add(systems.NewBoostFPP(qb[0], qb[1]))
	}
	return c.rows()
}

// FormatLoadRows renders the sweep.
func FormatLoadRows(rows []measures.Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %7s %5s %6s %8s %9s %9s %7s\n",
		"System", "n", "b", "c", "L", "Thm4.1", "Cor4.2", "L/bound")
	sb.WriteString(strings.Repeat("-", 80) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-22s %7d %5d %6d %8.4f %9.4f %9.4f %7.2f\n",
			r.System, r.N, r.B, r.C, r.Load, r.Thm41, r.Cor42, r.Load/r.Cor42)
	}
	return sb.String()
}

// CrashSweep returns the row of s at each p, its Monte Carlo cells (when
// F_p has no exact form) taking trials draws of rng.
func CrashSweep(s core.Construction, ps []float64, trials int, rng *rand.Rand) ([]measures.Row, error) {
	row := measures.NewRow(s)
	rows := make([]measures.Row, len(ps))
	for i, p := range ps {
		rows[i] = row
		if err := rows[i].Crash(p, trials, rng); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// FormatCrashRows renders a crash sweep. The p^(b+1) column reads n/a
// where Proposition 4.5's precondition MT ≤ (IS+1)/2 fails.
func FormatCrashRows(rows []measures.Row) string {
	var sb strings.Builder
	if len(rows) > 0 {
		fmt.Fprintf(&sb, "Crash sweep: %s\n", rows[0].System)
	}
	fmt.Fprintf(&sb, "%6s %12s %12s %12s %10s\n", "p", "F_p", "p^MT", "p^(b+1)", "F_p<p?")
	for _, r := range rows {
		prop45 := "n/a"
		if r.Prop45Applies {
			prop45 = fmt.Sprintf("%.3e", r.Prop45)
		}
		fmt.Fprintf(&sb, "%6.3f %12.3e %12.3e %12s %10v\n",
			r.P, r.Fp, r.Prop43, prop45, r.Fp < r.P)
	}
	return sb.String()
}

// RTCriticalRow reports the Proposition 5.6 fixed point for an RT family.
type RTCriticalRow struct {
	K, L   int
	Pc     float64
	FBelow float64 // F at p = pc·0.8, depth 6 — should be tiny
	FAbove float64 // F at p = pc·1.2, depth 6 — should be near 1
}

// RTCriticalProbabilities computes p_c for several RT block shapes,
// including the paper's RT(4,3) with p_c = 0.2324.
func RTCriticalProbabilities() ([]RTCriticalRow, error) {
	shapes := [][2]int{{3, 2}, {4, 3}, {5, 3}, {5, 4}, {7, 4}}
	rows := make([]RTCriticalRow, 0, len(shapes))
	for _, kl := range shapes {
		rt, err := systems.NewRT(kl[0], kl[1], 6)
		if err != nil {
			return nil, err
		}
		pc := rt.CriticalProbability()
		below, err := rt.CrashProbability(pc * 0.8)
		if err != nil {
			return nil, err
		}
		above, err := rt.CrashProbability(math.Min(pc*1.2, 0.999))
		if err != nil {
			return nil, err
		}
		rows = append(rows, RTCriticalRow{K: kl[0], L: kl[1], Pc: pc, FBelow: below, FAbove: above})
	}
	return rows, nil
}

// FormatRTCritical renders the critical probability table.
func FormatRTCritical(rows []RTCriticalRow) string {
	var sb strings.Builder
	sb.WriteString("RT critical probabilities (Proposition 5.6); F at depth 6\n")
	fmt.Fprintf(&sb, "%8s %8s %12s %12s\n", "RT(k,ℓ)", "p_c", "F(0.8·pc)", "F(1.2·pc)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "RT(%d,%d) %8.4f %12.3e %12.6f\n", r.K, r.L, r.Pc, r.FBelow, r.FAbove)
	}
	return sb.String()
}

// ResilienceLoadTradeoff returns Table 2's rows without F_p, for the
// Section 8 closing observation f ≤ n·L(Q): load and resilience cannot
// both be optimized.
func ResilienceLoadTradeoff() ([]measures.Row, error) {
	return table2Systems().rows()
}

// FormatTradeoff renders the tradeoff table.
func FormatTradeoff(rows []measures.Row) string {
	var sb strings.Builder
	sb.WriteString("Resilience–load tradeoff (Section 8): f ≤ n·L(Q)\n")
	fmt.Fprintf(&sb, "%-22s %7s %5s %8s %9s %6s\n", "System", "n", "f", "L", "n·L", "f≤nL")
	for _, r := range rows {
		holds := !slices.Contains(r.Failed(), "f ≤ n·L")
		fmt.Fprintf(&sb, "%-22s %7d %5d %8.4f %9.1f %6v\n", r.System, r.N, r.F, r.Load, float64(r.N)*r.Load, holds)
	}
	return sb.String()
}
