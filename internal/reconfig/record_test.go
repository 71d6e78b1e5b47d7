package reconfig

import (
	"strings"
	"testing"
)

func TestParseTargetBuilds(t *testing.T) {
	cases := []struct {
		spec     string
		b        int
		universe int
		name     string
	}{
		{"mgrid:36", 1, 36, "M-Grid"},
		{"grid:25", 1, 25, "Grid"},
		{"threshold:9", 2, 9, "Threshold"},
		{"wheel:12", 0, 12, "Wheel"},
		{"compose:5x5", 1, 25, "∘"},
		{"rt:64", 1, 64, "RT(4,3,h=3)"},
		{"mpath:36", 1, 36, "M-Path(d=6"},
		{"mpathedge:24", 1, 24, "M-PathEdge(d=4"},
		{"boostfpp:65", 1, 65, "boostFPP(q=3"},
	}
	for _, tc := range cases {
		rec, err := ParseTarget(tc.spec, tc.b)
		if err != nil {
			t.Fatalf("ParseTarget(%q, b=%d): %v", tc.spec, tc.b, err)
		}
		if rec.Universe != tc.universe || rec.B != tc.b || rec.Epoch != 0 {
			t.Fatalf("ParseTarget(%q) = %+v, want universe %d b %d epoch 0", tc.spec, rec, tc.universe, tc.b)
		}
		sys, err := BuildSystem(rec)
		if err != nil {
			t.Fatalf("BuildSystem(%+v): %v", rec, err)
		}
		if sys.UniverseSize() != tc.universe {
			t.Fatalf("%q: universe %d, want %d", tc.spec, sys.UniverseSize(), tc.universe)
		}
		if !strings.Contains(sys.Name(), tc.name) {
			t.Fatalf("%q: system name %q does not mention %q", tc.spec, sys.Name(), tc.name)
		}
	}
}

func TestParseTargetRejects(t *testing.T) {
	cases := []struct {
		spec string
		b    int
	}{
		{"mgrid:35", 1},     // not a square
		{"grid:10", 1},      // not a square
		{"threshold:4", 1},  // n < 4b+1
		{"wheel:12", 1},     // wheel is regular, b must be 0
		{"compose:5x4", 1},  // inner threshold 4 < 4b+1
		{"compose:55", 1},   // missing x
		{"mgrid", 1},        // no universe
		{"mgrid:", 1},       // empty universe
		{"mgrid:abc", 1},    // non-numeric
		{"nosuch:25", 1},    // unknown kind
		{"compose:0x5", 1},  // zero outer
		{"compose:-1x5", 1}, // negative outer
		// One unfittable universe per kind that derives a parameter from it.
		{"rt:50", 1},        // not 4^h
		{"rt:4", 1},         // RT(4,3) of depth 1 masks b = 0 only
		{"boostfpp:66", 1},  // not 5(q²+q+1)
		{"boostfpp:215", 1}, // 5·43, but q = 6 is not a prime power
		{"mpath:35", 1},     // not a square
		{"mpathedge:25", 1}, // not 2d(d−1)
		// Explicit-backed kinds stop at their cap, before the constructor.
		{"wheel:1025", 0},
		{"boostfpp:2049", 0},
		{"threshold:1048577", 1}, // past MaxUniverse
	}
	for _, tc := range cases {
		if _, err := ParseTarget(tc.spec, tc.b); err == nil {
			t.Errorf("ParseTarget(%q, b=%d) accepted, want error", tc.spec, tc.b)
		}
	}
}

func TestRecordValidateBounds(t *testing.T) {
	good := Record{Epoch: 7, Kind: "mgrid", Universe: 36, B: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate(%+v): %v", good, err)
	}
	bad := []Record{
		{Kind: "mgrid", Universe: 0, B: 0},
		{Kind: "mgrid", Universe: MaxUniverse + 1, B: 0},
		{Kind: "mgrid", Universe: 36, B: -1},
		{Kind: "mgrid", Universe: 36, B: 37},
		{Kind: "mgrid", Universe: 36, B: 1, Outer: -1},
		{Kind: "mgrid", Universe: 36, B: 1, Outer: 37},
		{Kind: "", Universe: 36, B: 1},
		{Kind: strings.Repeat("m", MaxKindLen+1), Universe: 36, B: 1},
		{Kind: "MGrid", Universe: 36, B: 1},  // uppercase
		{Kind: "m-grid", Universe: 36, B: 1}, // punctuation
	}
	for _, rec := range bad {
		if err := rec.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted, want error", rec)
		}
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Epoch: 3, Kind: "mgrid", Universe: 36, B: 1}
	if got := r.String(); got != "e3 mgrid:36" {
		t.Fatalf("String() = %q", got)
	}
	c := Record{Epoch: 2, Kind: "compose", Universe: 25, Outer: 5, B: 1}
	if got := c.String(); got != "e2 compose:5x5" {
		t.Fatalf("String() = %q", got)
	}
}

func TestPhaseString(t *testing.T) {
	want := map[Phase]string{Idle: "idle", Proposed: "proposed", Draining: "draining", CutOver: "cutover", Retired: "retired"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("Phase(%d).String() = %q, want %q", int(p), p.String(), s)
		}
	}
	if got := Phase(99).String(); got != "phase(99)" {
		t.Errorf("unknown phase = %q", got)
	}
}
