package paper

import (
	"fmt"
	"math/rand"
	"strings"

	"bqs/internal/measures"
	"bqs/internal/systems"
)

// Section8Row is one system of the Section 8 worked example (fixed
// n ≈ 1024, target load ≈ 1/4, element crash probability p = 1/8): its
// row, and b, f and F_p as the paper prints them.
type Section8Row struct {
	measures.Row
	PaperB, PaperF int
	PaperFp        string // the bound as printed in the paper
}

// Section8 reproduces the worked example with the paper's exact
// parameters: M-Grid (n=1024, b=15), boostFPP (n=1001, q=3, b=19), M-Path
// (4 LR + 4 TB paths, b=7), RT(4,3) depth 5 (b=15).
func Section8(trials int, seed int64) ([]Section8Row, error) {
	if trials <= 0 {
		trials = 10000
	}
	var c constructions
	c.add(systems.NewMGrid(32, 15))   // 4 rows + 4 columns per quorum
	c.add(systems.NewBoostFPP(3, 19)) // n = 1001
	c.add(systems.NewMPath(32, 7))    // 4 LR + 4 TB paths per quorum
	c.add(systems.NewRT(4, 3, 5))     // n = 1024
	rows, err := c.crashRows(0.125, trials, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	printed := []Section8Row{
		{PaperB: 15, PaperF: 28, PaperFp: "≥ 0.638"},
		{PaperB: 19, PaperF: 79, PaperFp: "≤ 0.372"},
		{PaperB: 7, PaperF: 29, PaperFp: "≤ 0.001"},
		{PaperB: 15, PaperF: 31, PaperFp: "≤ 0.0001"},
	}
	for i := range printed {
		printed[i].Row = rows[i]
	}
	return printed, nil
}

// FormatSection8 renders the comparison table.
func FormatSection8(rows []Section8Row) string {
	var sb strings.Builder
	sb.WriteString("Section 8 worked example: n ≈ 1024, L ≈ 1/4, p = 1/8\n")
	fmt.Fprintf(&sb, "%-20s %6s %9s %9s %8s %12s %14s %-10s\n",
		"System", "n", "b(paper)", "f(paper)", "L", "Fp(paper)", "Fp(measured)", "method")
	sb.WriteString(strings.Repeat("-", 96) + "\n")
	for _, r := range rows {
		fp := fmt.Sprintf("%.2e", r.Fp)
		if r.StdErr > 0 {
			fp = fmt.Sprintf("%.2e±%.0e", r.Fp, r.StdErr)
		}
		fmt.Fprintf(&sb, "%-20s %6d %3d (%3d) %3d (%3d) %8.4f %12s %14s %-10s\n",
			r.System, r.N, r.B, r.PaperB, r.F, r.PaperF, r.Load, r.PaperFp, fp, r.Method)
	}
	return sb.String()
}
