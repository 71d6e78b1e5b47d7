package measures

import (
	"math"
	"slices"
	"testing"

	"bqs/internal/core"
)

// advertised is an explicit system that claims the given load.
type advertised struct {
	*core.ExplicitSystem
	load float64
}

func (a advertised) Load() float64 { return a.load }

// TestRowFailsOverclaimedLoad: a construction advertising half the load
// its quorums force sits under Corollary 4.2, and its row says so.
func TestRowFailsOverclaimedLoad(t *testing.T) {
	maj := majority3(t)
	load, err := LoadFair(maj)
	if err != nil {
		t.Fatal(err)
	}
	if failed := NewRow(advertised{maj, load}).Failed(); len(failed) != 0 {
		t.Errorf("honest load %g: failed %v", load, failed)
	}
	if failed := NewRow(advertised{maj, load / 2}).Failed(); !slices.Contains(failed, "Cor 4.2") {
		t.Errorf("load %g: failed %v, want Cor 4.2 listed", load/2, failed)
	}
}

// TestRowCrashEnumerates: a small explicit system gets its exact F_p,
// checked against Props 4.3–4.4, and p outside [0,1] is refused.
func TestRowCrashEnumerates(t *testing.T) {
	maj := majority3(t)
	r := NewRow(maj)
	if err := r.Crash(0.2, 0, nil); err != nil {
		t.Fatal(err)
	}
	want, err := CrashProbabilityExact(maj, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Method != "exact" || math.Abs(r.Fp-want) > 1e-15 || r.StdErr != 0 {
		t.Errorf("row F_p = %g (%s ± %g), want exact %g", r.Fp, r.Method, r.StdErr, want)
	}
	if failed := r.Failed(); len(failed) != 0 {
		t.Errorf("majority-3 at p=0.2: failed %v", failed)
	}
	if err := r.Crash(1.5, 100, nil); err == nil {
		t.Error("p = 1.5 accepted")
	}
}
