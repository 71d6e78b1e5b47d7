package paper

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"bqs/internal/bitset"
	"bqs/internal/lattice"
	"bqs/internal/systems"
)

// Figure1MGrid renders the paper's Figure 1: the multi-grid on a 7×7
// universe with b = 3, one quorum (2 rows + 2 columns) shaded.
func Figure1MGrid(seed int64) (string, error) {
	m, err := systems.NewMGrid(7, 3)
	if err != nil {
		return "", err
	}
	rng := rand.New(rand.NewSource(seed))
	q, err := m.SelectQuorum(rng, bitset.Set{})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Figure 1: M-Grid, n = 7×7, b = 3 (quorum = 2 rows ∪ 2 columns)\n")
	sb.WriteString(renderGrid(7, q, bitset.Set{}))
	fmt.Fprintf(&sb, "quorum size %d = c(M-Grid) = %d\n", q.Count(), m.MinQuorumSize())
	return sb.String(), nil
}

// Figure2RT renders Figure 2: an RT(4,3) system of depth 2 with one
// quorum shaded, as a two-level tree over 16 leaves.
func Figure2RT(seed int64) (string, error) {
	rt, err := systems.NewRT(4, 3, 2)
	if err != nil {
		return "", err
	}
	rng := rand.New(rand.NewSource(seed))
	q, err := rt.SelectQuorum(rng, bitset.Set{})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Figure 2: RT(4,3) of depth h = 2 (3-of-4 over 3-of-4), one quorum shaded\n")
	sb.WriteString("                     [ 3 of 4 ]\n")
	for block := 0; block < 4; block++ {
		used := 0
		cells := make([]string, 4)
		for leaf := 0; leaf < 4; leaf++ {
			idx := block*4 + leaf
			if q.Contains(idx) {
				cells[leaf] = "█"
				used++
			} else {
				cells[leaf] = "·"
			}
		}
		marker := " "
		if used > 0 {
			marker = "*"
		}
		fmt.Fprintf(&sb, "  block %d %s [3 of 4]: %s\n", block, marker, strings.Join(cells, " "))
	}
	fmt.Fprintf(&sb, "quorum size %d = c(RT) = %d; blocks used: 3 of 4\n", q.Count(), rt.MinQuorumSize())
	return sb.String(), nil
}

// Figure3MPath renders Figure 3: the multi-path construction on a 9×9
// triangulated grid with b = 4, one quorum (3 disjoint LR paths + 3
// disjoint TB paths) shaded. The picker draws straight lines while three
// rows and three columns are alive, so the figure crashes one site in each
// of seven rows and seven columns: both axes fall back to the max-flow
// machinery and the paths genuinely wiggle.
func Figure3MPath(seed int64) (string, error) {
	m, err := systems.NewMPath(9, 4)
	if err != nil {
		return "", err
	}
	rng := rand.New(rand.NewSource(seed))
	dead := bitset.New(81)
	g := m.Grid()
	for _, rc := range [][2]int{{0, 3}, {1, 6}, {2, 1}, {3, 7}, {4, 4}, {6, 2}, {7, 5}} {
		dead.Add(g.Index(rc[0], rc[1]))
	}
	q, err := m.SelectQuorum(rng, dead)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Figure 3: M-Path, 9×9 triangulated grid, b = 4\n")
	sb.WriteString("(3 disjoint LR + 3 disjoint TB paths; x = crashed site)\n")
	sb.WriteString(renderGrid(9, q, dead))
	fmt.Fprintf(&sb, "quorum size %d (≤ paper bound 2√(n(2b+1)) = %.0f)\n",
		q.Count(), 2*math.Sqrt(81*9))
	return sb.String(), nil
}

// renderGrid draws a d×d universe: █ quorum member, x dead, · other.
func renderGrid(d int, quorum, dead bitset.Set) string {
	var sb strings.Builder
	for r := 0; r < d; r++ {
		for c := 0; c < d; c++ {
			v := r*d + c
			switch {
			case dead.Contains(v):
				sb.WriteString("x ")
			case quorum.Contains(v):
				sb.WriteString("█ ")
			default:
				sb.WriteString("· ")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// PercolationFigure tabulates the Appendix B crossing probability
// P_p(LR_k) on a d×d triangulated grid across p, showing the sharp
// threshold at the site-percolation critical probability 1/2.
func PercolationFigure(d, k, trials int, seed int64) (string, error) {
	g, err := lattice.New(d)
	if err != nil {
		return "", err
	}
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	fmt.Fprintf(&sb, "Appendix B: P_p(LR_%d) on the %d×%d triangulated grid (p_c = 1/2)\n", k, d, d)
	fmt.Fprintf(&sb, "%6s %12s\n", "p", "P_p(LR_k)")
	for _, p := range []float64{0.1, 0.2, 0.3, 0.4, 0.45, 0.5, 0.55, 0.6, 0.7} {
		prob, err := g.CrossingProbability(lattice.LeftRight, p, k, trials, rng)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%6.2f %12.3f\n", p, prob)
	}
	return sb.String(), nil
}
