package systems

import (
	"strings"
	"testing"

	"bqs/internal/core"
)

// checkParsed is what every accepted spec must satisfy: the construction
// spans exactly the universe the spec resolved to, masks b, and the spec
// prints back in the grammar Parse reads.
func checkParsed(t *testing.T, spec string, b int, sp Spec, sys core.Construction) {
	t.Helper()
	if sys.UniverseSize() != sp.Universe {
		t.Fatalf("Parse(%q, %d): universe %d, spec resolved to %d", spec, b, sys.UniverseSize(), sp.Universe)
	}
	if m, ok := sys.(core.Masking); ok && m.MaskingBound() < b {
		t.Fatalf("Parse(%q, %d): %s masks only %d", spec, b, sys.Name(), m.MaskingBound())
	}
	again, _, err := Parse(sp.String(), b)
	if err != nil || again != sp {
		t.Fatalf("Parse(%q, %d) resolved to %q, which parses to %+v, %v", spec, b, sp, again, err)
	}
}

// TestRegistryDefaults boots every kind bare, for each b it supports up to
// 3, and pins the grammar's two other forms.
func TestRegistryDefaults(t *testing.T) {
	regular := map[string]bool{"wheel": true} // b = 0 only
	for _, kind := range Kinds() {
		for b := 0; b <= 3; b++ {
			sp, sys, err := Parse(kind, b)
			if regular[kind] && b > 0 {
				if err == nil {
					t.Errorf("Parse(%q, %d) accepted a regular system at b > 0", kind, b)
				}
				continue
			}
			if err != nil {
				t.Errorf("Parse(%q, %d): %v", kind, b, err)
				continue
			}
			checkParsed(t, kind, b, sp, sys)
		}
	}
	// Default sizes harness.TestBuildSystem's table does not pin.
	for spec, n := range map[string]int{"rt": 64, "mpathedge": 180, "compose": 169} {
		if sp, _, err := Parse(spec, 3); err != nil || sp.Universe != n {
			t.Errorf("Parse(%q, 3) sized to %d, %v; want %d", spec, sp.Universe, err, n)
		}
	}
	sp, sys, err := Parse("compose:5x9", 1)
	if err != nil || sp != (Spec{Kind: "compose", Universe: 45, Outer: 5}) || sys.UniverseSize() != 45 {
		t.Errorf("compose:5x9 = %+v, %v", sp, err)
	}
	if sp.String() != "compose:5x9" || (Spec{Kind: "mgrid", Universe: 36}).String() != "mgrid:36" {
		t.Errorf("Spec.String() = %q", sp)
	}
	if _, err := Fit("mgrid", 36, 1, 6); err == nil {
		t.Error("an outer size on a kind that does not compose was accepted")
	}
}

// TestRegistryCapsNameTheCap: the kinds whose constructors are super-linear
// refuse a universe past their cap before building anything, and say what
// the cap is.
func TestRegistryCapsNameTheCap(t *testing.T) {
	for spec, limit := range map[string]string{
		"wheel:16000":    "[1, 1024]",
		"boostfpp:16257": "[1, 2048]", // 127²+127+1 lines at b = 0
		"mpath:1048576":  "[1, 65536]",
		"grid:1100401":   "[1, 1048576]", // 1049²
	} {
		if _, _, err := Parse(spec, 0); err == nil || !strings.Contains(err.Error(), limit) {
			t.Errorf("Parse(%q): err = %v, want out of range %s", spec, err, limit)
		}
	}
}

// FuzzParseSystem: no spec panics, and whatever Parse accepts is the
// system the spec asked for.
func FuzzParseSystem(f *testing.F) {
	for _, kind := range Kinds() {
		f.Add(kind, 1)
		f.Add(kind+":64", 0)
	}
	for _, spec := range []string{"compose:5x5", "compose:1048576x1048576", "compose:x", "mgrid:35", "rt:50",
		"boostfpp:65", "mpathedge:24", "threshold:99999999999999999999", "wheel:-3", "grid:", ":9", "mgrid:36:1", ""} {
		f.Add(spec, 1)
	}
	f.Add("mgrid:1", 0) // one quorum, no pair: the closed-form IS is negative
	f.Add("rt", 1<<62)
	f.Add("threshold", -1)
	f.Fuzz(func(t *testing.T, spec string, b int) {
		sp, sys, err := Parse(spec, b)
		if err != nil {
			return
		}
		checkParsed(t, spec, b, sp, sys)
	})
}
