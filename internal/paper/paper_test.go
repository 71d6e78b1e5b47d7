package paper

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"bqs/internal/measures"
	"bqs/internal/systems"
)

func TestTable2ShapeMatchesPaper(t *testing.T) {
	rows, err := Table2(0.125, 800, 1) // keep the unit test quick; benches use more
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	byName := map[string]measures.Row{}
	for _, r := range rows {
		key := r.System[:strings.IndexAny(r.System, "(")]
		byName[key] = r
		if r.Fp < 0 || r.Fp > 1 {
			t.Errorf("%s: F_p = %g outside [0,1]", r.System, r.Fp)
		}
	}
	th, mg, rt, bf, mp := byName["Threshold"], byName["M-Grid"], byName["RT"], byName["boostFPP"], byName["M-Path"]
	grid := byName["Grid"]

	// Table 2 qualitative shape at n ≈ 1024, p = 1/8:
	// Threshold: highest masking, load > 1/2.
	if th.B < 4*grid.B || th.Load <= 0.5 {
		t.Errorf("Threshold row off: b=%d load=%g", th.B, th.Load)
	}
	// Threshold & boostFPP mask the most; boostFPP load ≪ threshold load.
	if bf.Load >= th.Load/2 {
		t.Errorf("boostFPP load %g should be well below threshold load %g", bf.Load, th.Load)
	}
	// M-Grid and M-Path have optimal-order load: within 2.2× of the bound.
	if mg.Load > 2.2*mg.Cor42 || mp.Load > 2.2*mp.Cor42 {
		t.Errorf("M-Grid/M-Path load not near bound: %g/%g, %g/%g",
			mg.Load, mg.Cor42, mp.Load, mp.Cor42)
	}
	// Availability ordering at p = 1/8: grids fail badly, RT and M-Path
	// are excellent, boostFPP in between.
	if mg.Fp < 0.3 {
		t.Errorf("M-Grid F_p = %g, expected ≥ 0.3 (paper: ≥ 0.638 row bound)", mg.Fp)
	}
	if rt.Fp > 1e-4 {
		t.Errorf("RT F_p = %g, expected ≤ 1e-4", rt.Fp)
	}
	if mp.Fp > 0.01 {
		t.Errorf("M-Path F_p = %g, expected ≈ 0", mp.Fp)
	}
	if bf.Fp > 0.372 {
		t.Errorf("boostFPP F_p = %g, paper bound ≤ 0.372", bf.Fp)
	}
	// Formatting shouldn't blow up.
	if s := FormatTable2(rows); !strings.Contains(s, "Threshold") {
		t.Error("FormatTable2 missing rows")
	}
}

func TestSection8MatchesPaperNumbers(t *testing.T) {
	rows, err := Section8(2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		switch {
		case strings.HasPrefix(r.System, "M-Grid"):
			if r.B < r.PaperB {
				t.Errorf("M-Grid b = %d < paper %d", r.B, r.PaperB)
			}
			if r.F != r.PaperF {
				t.Errorf("M-Grid f = %d, paper %d", r.F, r.PaperF)
			}
			if r.Fp < 0.638-5*r.StdErr-0.02 {
				t.Errorf("M-Grid F_p = %g, paper says ≥ 0.638", r.Fp)
			}
		case strings.HasPrefix(r.System, "boostFPP"):
			if r.B != 19 || r.F != 79 {
				t.Errorf("boostFPP b=%d f=%d, paper 19/79", r.B, r.F)
			}
			if r.Fp > 0.372 {
				t.Errorf("boostFPP F_p = %g exceeds paper bound 0.372", r.Fp)
			}
		case strings.HasPrefix(r.System, "M-Path"):
			if r.B != 7 {
				t.Errorf("M-Path b = %d, paper 7", r.B)
			}
			// Paper reports f = 29 from √(2b+1) ≈ 3.87; the integral path
			// count gives MT = d−4+1 = 29, f = 28 — allow both.
			if r.F != 28 && r.F != 29 {
				t.Errorf("M-Path f = %d, paper ≈ 29", r.F)
			}
			if r.Fp > 0.001+5*r.StdErr {
				t.Errorf("M-Path F_p = %g, paper says ≤ 0.001", r.Fp)
			}
		case strings.HasPrefix(r.System, "RT"):
			if r.B != 15 || r.F != 31 {
				t.Errorf("RT b=%d f=%d, paper 15/31", r.B, r.F)
			}
			if r.Fp > 1e-4 {
				t.Errorf("RT F_p = %g, paper says ≤ 1e-4", r.Fp)
			}
		}
		// The scenario pins L ≈ 1/4 for all four systems.
		if math.Abs(r.Load-0.25) > 0.06 {
			t.Errorf("%s: load %g not ≈ 1/4", r.System, r.Load)
		}
	}
	if s := FormatSection8(rows); !strings.Contains(s, "Section 8") {
		t.Error("FormatSection8 broken")
	}
}

func TestFiguresRender(t *testing.T) {
	f1, err := Figure1MGrid(3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f1, "Figure 1") || strings.Count(f1, "\n") < 8 {
		t.Errorf("figure 1 malformed:\n%s", f1)
	}
	f2, err := Figure2RT(3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f2, "block 3") {
		t.Errorf("figure 2 malformed:\n%s", f2)
	}
	f3, err := Figure3MPath(3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f3, "x ") {
		t.Errorf("figure 3 should mark crashed sites:\n%s", f3)
	}
}

func TestPercolationFigureShape(t *testing.T) {
	out, err := PercolationFigure(12, 1, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "p_c = 1/2") {
		t.Error("percolation figure missing header")
	}
}

func TestLoadVsLowerBound(t *testing.T) {
	rows, err := LoadVsLowerBound()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 15 {
		t.Fatalf("only %d rows", len(rows))
	}
	for _, r := range rows {
		if ratio := r.Load / r.Cor42; ratio > 10 {
			t.Errorf("%s: load %gx above bound — suspicious for these constructions", r.System, ratio)
		}
	}
	if s := FormatLoadRows(rows); !strings.Contains(s, "Cor4.2") {
		t.Error("FormatLoadRows broken")
	}
}

func TestRTCriticalProbabilities(t *testing.T) {
	rows, err := RTCriticalProbabilities()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.K == 4 && r.L == 3 {
			if math.Abs(r.Pc-0.2324) > 1e-3 {
				t.Errorf("RT(4,3) p_c = %g, paper says 0.2324", r.Pc)
			}
		}
		if r.Pc <= 0 || r.Pc >= 1 {
			t.Errorf("RT(%d,%d): p_c = %g out of range", r.K, r.L, r.Pc)
		}
		if r.FBelow > 0.05 {
			t.Errorf("RT(%d,%d): F below p_c = %g, want ≈ 0", r.K, r.L, r.FBelow)
		}
		if r.FAbove < r.FBelow {
			t.Errorf("RT(%d,%d): F not increasing across p_c", r.K, r.L)
		}
	}
	if s := FormatRTCritical(rows); !strings.Contains(s, "0.2324") && !strings.Contains(s, "0.232") {
		t.Errorf("FormatRTCritical missing RT(4,3):\n%s", s)
	}
}

func TestResilienceLoadTradeoff(t *testing.T) {
	rows, err := ResilienceLoadTradeoff()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	if s := FormatTradeoff(rows); !strings.Contains(s, "f ≤ n·L") || strings.Contains(s, "false") {
		t.Errorf("FormatTradeoff broken or f > n·L:\n%s", s)
	}
}

func TestBoostingTable(t *testing.T) {
	rows, err := BoostingTable(0.05, 400, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Masks < r.B {
			t.Errorf("%s b=%d: composition masks only %d", r.Input, r.B, r.Masks)
		}
		if r.IS < 2*r.B+1 {
			t.Errorf("%s b=%d: IS = %d < 2b+1", r.Input, r.B, r.IS)
		}
		if r.Fp > 0.2 {
			t.Errorf("%s b=%d: F_0.05 = %g unexpectedly high", r.Input, r.B, r.Fp)
		}
	}
	if s := FormatBoosting(rows); !strings.Contains(s, "Boosting") {
		t.Error("FormatBoosting broken")
	}
}

func TestStrategyAblation(t *testing.T) {
	rows, err := StrategyAblation(4000, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Penalty < 1.3 {
			t.Errorf("%s: biased strategy penalty %.2fx, expected ≥ 1.3x", r.System, r.Penalty)
		}
		if math.Abs(r.OptimalEmp-r.Optimal) > 0.05 {
			t.Errorf("%s: uniform empirical %g far from analytic %g", r.System, r.OptimalEmp, r.Optimal)
		}
	}
	if s := FormatAblation(rows); !strings.Contains(s, "penalty") {
		t.Error("FormatAblation broken")
	}
}

// TestRowsHoldTheirClaims: every row of Table 2, Section 8 and the load
// sweep satisfies each claim it is held to — Lemma 3.6, Thm 4.1, Cor 4.2,
// f ≤ n·L and, where F_p was computed, Props 4.3–4.5.
func TestRowsHoldTheirClaims(t *testing.T) {
	table2, err := Table2(0.125, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	section8, err := Section8(400, 3)
	if err != nil {
		t.Fatal(err)
	}
	load, err := LoadVsLowerBound()
	if err != nil {
		t.Fatal(err)
	}
	rows := append(table2, load...)
	for _, r := range section8 {
		rows = append(rows, r.Row)
	}
	for _, r := range rows {
		if failed := r.Failed(); len(failed) > 0 {
			t.Errorf("%s (p=%g): violates %v", r.System, r.P, failed)
		}
	}
}

func TestCrashSweepRTAgainstBounds(t *testing.T) {
	rt, err := systems.NewRT(4, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	// RT's F_p is its exact recurrence: no trials, no rng.
	rows, err := CrashSweep(rt, []float64{0.05, 0.15, 0.2324, 0.35}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Method != "exact" {
			t.Errorf("p=%g: method %q, want exact", r.P, r.Method)
		}
		if failed := r.Failed(); len(failed) > 0 {
			t.Errorf("p=%g: F_p %g violates %v", r.P, r.Fp, failed)
		}
	}
	// Below p_c the system amplifies availability (Condorcet-style).
	if rows[0].Fp >= rows[0].P {
		t.Error("RT at p=0.05 should have F_p < p")
	}
	// MT = 16 > (IS+1)/2 = 8.5: Proposition 4.5 says nothing about RT.
	s := FormatCrashRows(rows)
	if !strings.Contains(s, "RT(4,3,h=4)") || strings.Count(s, "n/a") != len(rows) {
		t.Errorf("FormatCrashRows: want the header and n/a in every p^(b+1) cell:\n%s", s)
	}
}

func TestCrashSweepMonteCarlo(t *testing.T) {
	mg, err := systems.NewMGrid(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	rows, err := CrashSweep(mg, []float64{0.1, 0.3}, 300, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Method != "mc" || rows[0].StdErr <= 0 {
		t.Fatalf("MC sweep malformed: %+v", rows)
	}
	if rows[1].Fp < rows[0].Fp {
		t.Error("F_p should not decrease in p for M-Grid at these points")
	}
}
