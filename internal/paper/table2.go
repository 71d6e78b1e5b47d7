// Package paper regenerates every table and figure in the paper's
// evaluation: Table 2 (the properties of all six constructions), the
// Section 8 worked example (n ≈ 1024, p = 1/8), Figures 1–3 (construction
// diagrams), and the per-proposition sweeps (load vs the Theorem 4.1 /
// Corollary 4.2 bounds, crash probability vs the Propositions 4.3–4.5
// bounds, the RT critical probability, percolation behavior of M-Path, and
// the Section 8 resilience–load tradeoff). Each table is a list of
// constructions and a renderer over their measures.Row values. The cmd/
// tools print these tables; bench_test.go at the module root wraps each
// one in a Go benchmark.
package paper

import (
	"fmt"
	"math/rand"
	"strings"

	"bqs/internal/core"
	"bqs/internal/measures"
	"bqs/internal/systems"
)

// constructions collects built systems, keeping the first build error.
type constructions struct {
	list []core.Construction
	err  error
}

func (c *constructions) add(s core.Construction, err error) {
	if err != nil {
		if c.err == nil {
			c.err = fmt.Errorf("paper: %w", err)
		}
		return
	}
	c.list = append(c.list, s)
}

// rows returns the deterministic row of every construction.
func (c *constructions) rows() ([]measures.Row, error) {
	if c.err != nil {
		return nil, c.err
	}
	rows := make([]measures.Row, len(c.list))
	for i, s := range c.list {
		rows[i] = measures.NewRow(s)
	}
	return rows, nil
}

// crashRows returns every construction's row with F_p at p. The Monte
// Carlo cells draw from one rng in list order, M-Path taking a quarter of
// the trials: under crashes its picks fall back to max-flow, and at the
// tables' p its crash events are rare.
func (c *constructions) crashRows(p float64, trials int, rng *rand.Rand) ([]measures.Row, error) {
	rows, err := c.rows()
	if err != nil {
		return nil, err
	}
	for i := range rows {
		n := trials
		if _, ok := c.list[i].(*systems.MPath); ok {
			n = trials/4 + 1
		}
		if err := rows[i].Crash(p, n, rng); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// table2Systems are Table 2's six constructions in the n ≈ 1024 regime of
// the Section 8 discussion.
func table2Systems() *constructions {
	var c constructions
	c.add(systems.NewMaskingThreshold(1021, 255)) // [MR98a], n = 4b+1
	c.add(systems.NewGrid(32, 10))                // [MR98a], b ≤ (d−1)/3
	c.add(systems.NewMGrid(32, 15))               // §5.1, b ≤ (√n−1)/2
	c.add(systems.NewRT(4, 3, 5))                 // §5.2, n = 4^5
	c.add(systems.NewBoostFPP(3, 19))             // §6, n = 13·77 = 1001
	c.add(systems.NewMPath(32, 15))               // §7
	return &c
}

// Table2 builds Table 2's six rows with F_p at element crash probability
// p; Monte Carlo cells take trials draws from a generator seeded by seed.
func Table2(p float64, trials int, seed int64) ([]measures.Row, error) {
	return table2Systems().crashRows(p, trials, rand.New(rand.NewSource(seed)))
}

// FormatTable2 renders rows as a paper-style text table.
func FormatTable2(rows []measures.Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %6s %5s %5s %6s %8s %8s %10s %-10s\n",
		"System", "n", "b", "f", "c", "L", "L-bound", "F_p", "method")
	sb.WriteString(strings.Repeat("-", 92) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-22s %6d %5d %5d %6d %8.4f %8.4f %10.3e %-10s\n",
			r.System, r.N, r.B, r.F, r.C, r.Load, r.Cor42, r.Fp, r.Method)
	}
	fmt.Fprintf(&sb, "(F_p at element crash probability p = %.3f)\n", rows[0].P)
	return sb.String()
}
