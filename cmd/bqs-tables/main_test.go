package main

import (
	"flag"
	"io"
	"os"
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
