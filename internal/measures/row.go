package measures

import (
	"fmt"
	"math/rand"

	"bqs/internal/core"
)

// Row is one construction judged by the list the paper holds every
// construction to: n, c, IS and MT; the masking bound b of Corollary 3.7
// and the resilience f; the advertised load L against Theorem 4.1 and
// Corollary 4.2; and, once Crash has run, F_p against Propositions
// 4.3–4.5. Table 2, Section 8, the load, tradeoff and crash sweeps,
// bqs-verify and the planner example render rows.
type Row struct {
	System       string
	N, C, IS, MT int
	B, F         int
	HasLoad      bool    // whether the construction advertises L
	Load         float64 // the advertised L (core.AdvertisedLoad)
	Thm41        float64 // max{(2b+1)/c, c/n}
	Cor42        float64 // √((2b+1)/n)

	// The crash columns stay zero until Crash fills them.
	P             float64
	Fp            float64
	StdErr        float64 // 0 for an exact F_p
	Method        string  // "exact" or "mc"
	Prop43        float64 // p^MT
	Prop44        float64 // p^(c−2b)
	Prop45        float64 // p^(b+1), a bound only when Prop45Applies
	Prop45Applies bool    // MT ≤ (IS+1)/2

	sys core.Construction
}

// NewRow fills the columns of s that do not depend on p.
func NewRow(s core.Construction) Row {
	n, c, b := s.UniverseSize(), s.MinQuorumSize(), core.MaskingBoundFromParams(s)
	r := Row{
		System: s.Name(), N: n, C: c, IS: s.MinIntersection(), MT: s.MinTransversal(),
		B: b, F: core.Resilience(s),
		Thm41: LoadLowerBound(n, b, c), Cor42: GlobalLoadLowerBound(n, b),
		Prop45Applies: Prop45Applies(s),
		sys:           s,
	}
	if ld, ok := s.(core.AdvertisedLoad); ok {
		r.HasLoad, r.Load = true, ld.Load()
	}
	return r
}

// Crash fills the crash columns at element crash probability p. F_p is
// exact when the construction has a closed form (core.AnalyticCrash) or
// can list its quorums over at most MaxExactUniverse servers; otherwise,
// or when both fail, it is a Monte Carlo estimate from trials draws of rng.
func (r *Row) Crash(p float64, trials int, rng *rand.Rand) error {
	if !(p >= 0 && p <= 1) {
		return fmt.Errorf("measures: crash probability p=%g outside [0,1]", p)
	}
	if fp, ok := exactCrash(r.sys, p); ok {
		r.Fp, r.StdErr, r.Method = fp, 0, "exact"
	} else {
		mc, err := CrashProbabilityMC(r.sys, p, trials, rng)
		if err != nil {
			return fmt.Errorf("measures: %s: %w", r.System, err)
		}
		r.Fp, r.StdErr, r.Method = mc.Estimate, mc.StdErr, "mc"
	}
	r.P = p
	r.Prop43 = CrashLowerBoundMT(r.MT, p)
	r.Prop44 = CrashLowerBoundMasking(r.C, r.B, p)
	r.Prop45 = CrashLowerBoundB(r.B, p)
	return nil
}

// exactCrash is F_p from s's closed form, else from enumerating its
// quorums; ok is false when neither reaches s.
func exactCrash(s core.Construction, p float64) (fp float64, ok bool) {
	if a, isAnalytic := s.(core.AnalyticCrash); isAnalytic {
		if fp, err := a.CrashProbability(p); err == nil {
			return fp, true
		}
	}
	if s.UniverseSize() > MaxExactUniverse {
		return 0, false
	}
	en, err := core.AsEnumerable(s, 0)
	if err != nil {
		return 0, false
	}
	fp, err = CrashProbabilityExact(en, p)
	return fp, err == nil
}

// Check is one claim of the paper held against a row.
type Check struct {
	Claim     string // what Failed lists: "Lemma 3.6", "Thm 4.1", …
	Statement string // the inequality, with the row's numbers
	Holds     bool
}

// Checks lists the claims that apply to the row: Lemma 3.6 always;
// Thm 4.1, Cor 4.2 and Section 8's f ≤ n·L when the construction
// advertises L; Props 4.3 and 4.4 once Crash has run, and Prop 4.5 where
// its precondition holds. An exact F_p may sit 1e-9 (relative) under a
// bound, a Monte Carlo one five standard errors plus 1e-9.
func (r Row) Checks() []Check {
	checks := []Check{{"Lemma 3.6", "MT ≥ b+1 and IS ≥ 2b+1 at the declared bound",
		r.MT >= r.B+1 && r.IS >= 2*r.B+1}}
	if r.HasLoad {
		nl := float64(r.N) * r.Load
		checks = append(checks,
			Check{"Thm 4.1", fmt.Sprintf("L=%.4f ≥ max{(2b+1)/c, c/n}=%.4f", r.Load, r.Thm41), r.Load >= r.Thm41-1e-9},
			Check{"Cor 4.2", fmt.Sprintf("L ≥ √((2b+1)/n)=%.4f", r.Cor42), r.Load >= r.Cor42-1e-9},
			Check{"f ≤ n·L", fmt.Sprintf("f=%d ≤ n·L=%.1f", r.F, nl), float64(r.F) <= nl+1e-9})
	}
	if r.Method == "" {
		return checks
	}
	atLeast := func(bound float64) bool {
		if r.Method == "exact" {
			return r.Fp >= bound*(1-1e-9)
		}
		return r.Fp >= bound-5*r.StdErr-1e-9
	}
	checks = append(checks,
		Check{"Prop 4.3", fmt.Sprintf("F_p ≥ p^MT=%.3g", r.Prop43), atLeast(r.Prop43)},
		Check{"Prop 4.4", fmt.Sprintf("F_p ≥ p^(c−2b)=%.3g", r.Prop44), atLeast(r.Prop44)})
	if r.Prop45Applies {
		checks = append(checks, Check{"Prop 4.5", fmt.Sprintf("F_p ≥ p^(b+1)=%.3g", r.Prop45), atLeast(r.Prop45)})
	}
	return checks
}

// Failed names the claims of Checks that the row violates.
func (r Row) Failed() []string {
	var failed []string
	for _, c := range r.Checks() {
		if !c.Holds {
			failed = append(failed, c.Claim)
		}
	}
	return failed
}
