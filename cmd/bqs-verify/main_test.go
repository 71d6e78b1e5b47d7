package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"bqs/internal/systems"
)

// discardStdout drops the report the tool prints for the rest of the test.
func discardStdout(t *testing.T) {
	t.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = null
	t.Cleanup(func() {
		os.Stdout = old
		null.Close()
	})
}

// runWith runs the binary's run() on args against a fresh, non-exiting
// command-line FlagSet.
func runWith(t *testing.T, args ...string) error {
	t.Helper()
	discardStdout(t)
	oldArgs, oldFlags := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = oldArgs, oldFlags })
	flag.CommandLine = flag.NewFlagSet("bqs-verify", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	os.Args = append([]string{"bqs-verify"}, args...)
	return run()
}

// TestFlagSurface pins the four flags left once the per-kind sizing flags
// folded into the -system spec.
func TestFlagSurface(t *testing.T) {
	if err := runWith(t, "-h"); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	got := map[string]string{}
	flag.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	want := map[string]string{"system": "mgrid:49", "b": "3", "p": "0.125", "trials": "3000"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %v\nwant %v", got, want)
	}
}

// TestVerifiesEveryKind runs the tool over every registry kind at its
// default size for b = 1 (b = 0 for a regular system): every claim holds,
// so every run exits 0.
func TestVerifiesEveryKind(t *testing.T) {
	for _, kind := range systems.Kinds() {
		b := "1"
		if _, _, err := systems.Parse(kind, 1); err != nil {
			b = "0"
		}
		if err := runWith(t, "-system", kind, "-b", b, "-trials", "1000"); err != nil {
			t.Errorf("-system %s -b %s: %v", kind, b, err)
		}
	}
	if err := runWith(t, "-system", "mgrid:25", "-b", "1", "-trials", "1000"); err != nil {
		t.Errorf("-system mgrid:25 -b 1: %v", err)
	}
	for _, bad := range []string{"bogus", "mgrid:50", "wheel:16000"} {
		if err := runWith(t, "-system", bad, "-b", "0"); err == nil {
			t.Errorf("-system %s accepted", bad)
		}
	}
}

// overclaimed is a construction whose declared IS is one more than its
// quorums deliver.
type overclaimed struct{ *systems.Grid }

func (o overclaimed) MinIntersection() int { return o.Grid.MinIntersection() + 1 }

// TestFailedCheckIsAnError pins the non-zero path: a mis-declared
// parameter prints [FAIL] and comes back as an error naming the check.
func TestFailedCheckIsAnError(t *testing.T) {
	mg, err := systems.NewMGrid(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	discardStdout(t)
	if err := verify(mg, 0.125, 1000); err != nil {
		t.Fatalf("honest M-Grid(4,1): %v", err)
	}
	err = verify(overclaimed{mg}, 0.125, 1000)
	if err == nil || !strings.Contains(err.Error(), "1 checks failed: enumeration: IS matches") {
		t.Fatalf("overclaimed IS: err = %v, want the failed enumeration check", err)
	}
}
