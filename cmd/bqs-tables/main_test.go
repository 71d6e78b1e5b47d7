package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runWith runs the binary's run() on args against a fresh, non-exiting
// command-line FlagSet.
func runWith(t *testing.T, args ...string) error {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = oldArgs, oldFlags })
	flag.CommandLine = flag.NewFlagSet("bqs-tables", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	os.Args = append([]string{"bqs-tables"}, args...)
	return run()
}

// stdoutOf runs the binary's run() on args and returns what it printed.
func stdoutOf(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	err = runWith(t, args...)
	os.Stdout = old
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestEveryTablePrints runs each -only table on a small Monte Carlo budget
// and checks that it prints its own header and no other table's.
func TestEveryTablePrints(t *testing.T) {
	headers := map[string]string{
		"table2":   "== Table 2: constructions at n ≈ 1024 ==",
		"section8": "== Section 8 worked example ==",
		"load":     "== Load vs Theorem 4.1 / Corollary 4.2 lower bounds ==",
		"rt":       "== RT critical probabilities (Proposition 5.6) ==",
		"tradeoff": "== Resilience–load tradeoff (Section 8) ==",
		"crash":    "== Crash-probability sweeps vs lower bounds ==",
		"boosting": "== Boosting arbitrary regular systems (Section 6) ==",
		"ablation": "== Strategy ablation (Definition 3.8 is about strategies) ==",
	}
	if len(headers) != len(tables) {
		t.Fatalf("%d headers for %d tables", len(headers), len(tables))
	}
	for _, name := range tables {
		t.Run(name, func(t *testing.T) {
			out := stdoutOf(t, "-only", name, "-trials", "100")
			if !strings.HasPrefix(out, headers[name]+"\n") {
				t.Errorf("output does not open with %q:\n%s", headers[name], out)
			}
			if n := strings.Count(out, "\n== "); n != 0 {
				t.Errorf("%d further table headers:\n%s", n, out)
			}
		})
	}
}

// TestOnlyRejectsUnknownTable: a misspelt -only used to print nothing and
// exit 0. It must fail, naming every table it accepts.
func TestOnlyRejectsUnknownTable(t *testing.T) {
	err := runWith(t, "-only", "nope")
	if err == nil {
		t.Fatal("-only nope accepted")
	}
	for _, name := range tables {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}
}
