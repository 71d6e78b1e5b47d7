package paper

import (
	"fmt"
	"math/rand"
	"strings"

	"bqs/internal/bitset"
	"bqs/internal/core"
	"bqs/internal/measures"
	"bqs/internal/projective"
	"bqs/internal/systems"
)

// BoostRow records the §6 boosting technique applied to one regular
// system: the composed parameters and a Monte Carlo availability check.
type BoostRow struct {
	Input    string
	B        int
	N        int
	IS, MT   int
	Masks    int // Corollary 3.7 bound of the composition
	SurviveP float64
	Fp       float64
}

// BoostingTable applies Boost(S, b) = S ∘ Thresh(3b+1 of 4b+1) to four
// regular systems — majority, the NW grid, a projective plane, and a
// crumbling wall — demonstrating the paper's claim that the technique
// makes every known benign construction available for Byzantine
// environments.
func BoostingTable(p float64, trials int, seed int64) ([]BoostRow, error) {
	rng := rand.New(rand.NewSource(seed))
	var rows []BoostRow

	inputs := make([]core.System, 0, 4)
	maj, err := systems.NewMajority(5)
	if err != nil {
		return nil, err
	}
	inputs = append(inputs, maj)
	grid, err := systems.NewNWGrid(4)
	if err != nil {
		return nil, err
	}
	inputs = append(inputs, grid)
	plane, err := projective.New(2)
	if err != nil {
		return nil, err
	}
	fpp, err := systems.NewFPP(plane)
	if err != nil {
		return nil, err
	}
	inputs = append(inputs, fpp)
	wall, err := systems.NewCrumblingWall([]int{1, 2, 3}, 0)
	if err != nil {
		return nil, err
	}
	inputs = append(inputs, wall)

	for _, in := range inputs {
		for _, b := range []int{1, 2} {
			boosted, err := systems.Boost(in, b)
			if err != nil {
				return nil, err
			}
			mc, err := measures.CrashProbabilityMC(boosted, p, trials, rng)
			if err != nil {
				return nil, err
			}
			rows = append(rows, BoostRow{
				Input:    in.Name(),
				B:        b,
				N:        boosted.UniverseSize(),
				IS:       boosted.MinIntersection(),
				MT:       boosted.MinTransversal(),
				Masks:    boosted.MaskingBound(),
				SurviveP: p,
				Fp:       mc.Estimate,
			})
		}
	}
	return rows, nil
}

// FormatBoosting renders the boosting table.
func FormatBoosting(rows []BoostRow) string {
	var sb strings.Builder
	sb.WriteString("Boosting (§6): regular system ∘ Thresh(3b+1 of 4b+1)\n")
	fmt.Fprintf(&sb, "%-14s %3s %6s %5s %5s %7s %10s\n", "input", "b", "n", "IS", "MT", "masks", "F_p")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %3d %6d %5d %5d %7d %10.4f\n",
			r.Input, r.B, r.N, r.IS, r.MT, r.Masks, r.Fp)
	}
	return sb.String()
}

// AblationRow compares the load of a construction's proper strategy
// against a deliberately naive one, quantifying how much Definition 3.8's
// "best possible strategy" matters.
type AblationRow struct {
	System     string
	Optimal    float64 // analytic load of the paper's strategy
	OptimalEmp float64 // measured busiest-server frequency
	NaiveEmp   float64 // measured with the biased strategy
	Penalty    float64 // NaiveEmp / OptimalEmp
}

// biasedMGrid picks M-Grid quorums only from the top half of the rows and
// left half of the columns — a plausible-looking but load-hostile
// strategy. It is only ever measured fault-free, so it ignores dead.
type biasedMGrid struct {
	*systems.Grid
}

func (b biasedMGrid) SelectQuorum(rng *rand.Rand, _ bitset.Set) (bitset.Set, error) {
	d := b.Side()
	r, _ := b.Lines()
	half := max(d/2, r)
	q := bitset.New(d * d)
	for _, row := range rng.Perm(half)[:r] {
		for c := 0; c < d; c++ {
			q.Add(row*d + c)
		}
	}
	for _, col := range rng.Perm(half)[:r] {
		for rr := 0; rr < d; rr++ {
			q.Add(rr*d + col)
		}
	}
	return q, nil
}

// StrategyAblation measures the load penalty of the biased strategy on
// M-Grid instances (the paper's load optimality claims are about the
// strategy, not just the quorum sets).
func StrategyAblation(trials int, seed int64) ([]AblationRow, error) {
	rng := rand.New(rand.NewSource(seed))
	var rows []AblationRow
	for _, cfg := range []struct{ d, b int }{{16, 7}, {32, 15}} {
		mg, err := systems.NewMGrid(cfg.d, cfg.b)
		if err != nil {
			return nil, err
		}
		optEmp, err := measures.EmpiricalLoad(mg, trials, rng)
		if err != nil {
			return nil, err
		}
		naiveEmp, err := measures.EmpiricalLoad(biasedMGrid{mg}, trials, rng)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			System:     mg.Name(),
			Optimal:    mg.Load(),
			OptimalEmp: optEmp,
			NaiveEmp:   naiveEmp,
			Penalty:    naiveEmp / optEmp,
		})
	}
	return rows, nil
}

// FormatAblation renders the strategy ablation.
func FormatAblation(rows []AblationRow) string {
	var sb strings.Builder
	sb.WriteString("Strategy ablation: uniform (paper) vs biased quorum choice on M-Grid\n")
	fmt.Fprintf(&sb, "%-20s %10s %12s %12s %8s\n", "system", "L(analytic)", "L(uniform)", "L(biased)", "penalty")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-20s %10.4f %12.4f %12.4f %7.2fx\n",
			r.System, r.Optimal, r.OptimalEmp, r.NaiveEmp, r.Penalty)
	}
	return sb.String()
}
