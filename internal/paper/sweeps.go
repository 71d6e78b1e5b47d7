package paper

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"bqs/internal/core"
	"bqs/internal/measures"
	"bqs/internal/systems"
)

// LoadRow compares a construction's load against the Theorem 4.1 /
// Corollary 4.2 lower bounds.
type LoadRow struct {
	System     string
	N, B, C    int
	Load       float64
	BoundThm41 float64 // max{(2b+1)/c, c/n}
	BoundCor42 float64 // √((2b+1)/n)
	Ratio      float64 // Load / BoundCor42
}

// LoadVsLowerBound sweeps each construction family across sizes and
// reports how close its load sits to the masking lower bounds — the
// quantitative content of the optimality claims in Propositions 5.2, 5.5,
// 6.2 and 7.2.
func LoadVsLowerBound() ([]LoadRow, error) {
	var rows []LoadRow
	add := func(s core.Construction, load float64) {
		b := core.MaskingBoundFromParams(s)
		c := s.MinQuorumSize()
		n := s.UniverseSize()
		cor := measures.GlobalLoadLowerBound(n, b)
		rows = append(rows, LoadRow{
			System: s.Name(), N: n, B: b, C: c,
			Load:       load,
			BoundThm41: measures.LoadLowerBound(n, b, c),
			BoundCor42: cor,
			Ratio:      load / cor,
		})
	}
	for _, bb := range []int{4, 16, 64} {
		th, err := systems.NewMaskingThreshold(4*bb+1, bb)
		if err != nil {
			return nil, err
		}
		add(th, th.Load())
	}
	for _, d := range []int{16, 32, 64} {
		g, err := systems.NewGrid(d, (d-1)/6)
		if err != nil {
			return nil, err
		}
		add(g, g.Load())
		mg, err := systems.NewMGrid(d, d/2-1)
		if err != nil {
			return nil, err
		}
		add(mg, mg.Load())
		mp, err := systems.NewMPath(d, d/3)
		if err != nil {
			return nil, err
		}
		add(mp, mp.Load())
	}
	for _, h := range []int{3, 4, 5} {
		rt, err := systems.NewRT(4, 3, h)
		if err != nil {
			return nil, err
		}
		add(rt, rt.Load())
	}
	for _, qb := range [][2]int{{2, 3}, {3, 7}, {5, 19}} {
		bf, err := systems.NewBoostFPP(qb[0], qb[1])
		if err != nil {
			return nil, err
		}
		add(bf, bf.Load())
	}
	return rows, nil
}

// FormatLoadRows renders the sweep.
func FormatLoadRows(rows []LoadRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %7s %5s %6s %8s %9s %9s %7s\n",
		"System", "n", "b", "c", "L", "Thm4.1", "Cor4.2", "L/bound")
	sb.WriteString(strings.Repeat("-", 80) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-22s %7d %5d %6d %8.4f %9.4f %9.4f %7.2f\n",
			r.System, r.N, r.B, r.C, r.Load, r.BoundThm41, r.BoundCor42, r.Ratio)
	}
	return sb.String()
}

// CrashRow holds a crash-probability sweep point with its lower bounds.
type CrashRow struct {
	System   string
	P        float64
	Fp       float64
	StdErr   float64
	BoundMT  float64 // Prop 4.3: p^MT
	BoundB   float64 // Prop 4.5: p^(b+1), when applicable
	Applies  bool    // Prop 4.5 precondition
	Condorce bool    // whether F_p < p (availability actually amplified)
}

// CrashSweep evaluates F_p across p for one system, via the supplied
// evaluator (exact, recurrence, or Monte Carlo).
func CrashSweep(s core.Construction, eval func(p float64) (float64, float64, error), ps []float64) ([]CrashRow, error) {
	rows := make([]CrashRow, 0, len(ps))
	for _, p := range ps {
		fp, se, err := eval(p)
		if err != nil {
			return nil, err
		}
		b := core.MaskingBoundFromParams(s)
		rows = append(rows, CrashRow{
			System:   s.Name(),
			P:        p,
			Fp:       fp,
			StdErr:   se,
			BoundMT:  measures.CrashLowerBoundMT(s.MinTransversal(), p),
			BoundB:   measures.CrashLowerBoundB(b, p),
			Applies:  measures.Prop45Applies(s),
			Condorce: fp < p,
		})
	}
	return rows, nil
}

// MCEvaluator adapts Monte Carlo estimation to CrashSweep's signature.
func MCEvaluator(s core.System, trials int, rng *rand.Rand) func(p float64) (float64, float64, error) {
	return func(p float64) (float64, float64, error) {
		mc, err := measures.CrashProbabilityMC(s, p, trials, rng)
		if err != nil {
			return 0, 0, err
		}
		return mc.Estimate, mc.StdErr, nil
	}
}

// FormatCrashRows renders a crash sweep.
func FormatCrashRows(rows []CrashRow) string {
	var sb strings.Builder
	if len(rows) > 0 {
		fmt.Fprintf(&sb, "Crash sweep: %s\n", rows[0].System)
	}
	fmt.Fprintf(&sb, "%6s %12s %12s %12s %10s\n", "p", "F_p", "p^MT", "p^(b+1)", "F_p<p?")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%6.3f %12.3e %12.3e %12.3e %10v\n",
			r.P, r.Fp, r.BoundMT, r.BoundB, r.Condorce)
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
		rows = append(rows, RTCriticalRow{
			K: kl[0], L: kl[1], Pc: pc,
			FBelow: rt.CrashProbability(pc * 0.8),
			FAbove: rt.CrashProbability(math.Min(pc*1.2, 0.999)),
		})
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

// TradeoffRow checks the Section 8 closing observation f ≤ n·L(Q): load
// and resilience cannot both be optimized.
type TradeoffRow struct {
	System string
	N, F   int
	Load   float64
	NL     float64
	Holds  bool
}

// ResilienceLoadTradeoff evaluates f ≤ nL across all constructions.
func ResilienceLoadTradeoff() ([]TradeoffRow, error) {
	var rows []TradeoffRow
	add := func(s core.Construction, load float64) {
		f := core.Resilience(s)
		nl := float64(s.UniverseSize()) * load
		rows = append(rows, TradeoffRow{
			System: s.Name(), N: s.UniverseSize(), F: f, Load: load,
			NL: nl, Holds: float64(f) <= nl+1e-9,
		})
	}
	th, err := systems.NewMaskingThreshold(1021, 255)
	if err != nil {
		return nil, err
	}
	add(th, th.Load())
	g, err := systems.NewGrid(32, 10)
	if err != nil {
		return nil, err
	}
	add(g, g.Load())
	mg, err := systems.NewMGrid(32, 15)
	if err != nil {
		return nil, err
	}
	add(mg, mg.Load())
	rt, err := systems.NewRT(4, 3, 5)
	if err != nil {
		return nil, err
	}
	add(rt, rt.Load())
	bf, err := systems.NewBoostFPP(3, 19)
	if err != nil {
		return nil, err
	}
	add(bf, bf.Load())
	mp, err := systems.NewMPath(32, 15)
	if err != nil {
		return nil, err
	}
	add(mp, mp.Load())
	return rows, nil
}

// FormatTradeoff renders the tradeoff table.
func FormatTradeoff(rows []TradeoffRow) string {
	var sb strings.Builder
	sb.WriteString("Resilience–load tradeoff (Section 8): f ≤ n·L(Q)\n")
	fmt.Fprintf(&sb, "%-22s %7s %5s %8s %9s %6s\n", "System", "n", "f", "L", "n·L", "f≤nL")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-22s %7d %5d %8.4f %9.1f %6v\n", r.System, r.N, r.F, r.Load, r.NL, r.Holds)
	}
	return sb.String()
}
