package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// runWith runs the binary's run() on args against a fresh, non-exiting
// command-line FlagSet, so flag errors come back instead of ending the
// test process.
func runWith(t *testing.T, args ...string) error {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = oldArgs, oldFlags })
	flag.CommandLine = flag.NewFlagSet("bqs-client", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	os.Args = append([]string{"bqs-client"}, args...)
	return run()
}

// TestFlagSurface pins every flag name and default bqs-client accepts:
// the shared set registered by internal/harness with this binary's three
// defaults (mgrid, b=1, 2s deadline) plus -routes and -pool.
func TestFlagSurface(t *testing.T) {
	if err := runWith(t, "-h"); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	got := map[string]string{}
	flag.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	want := map[string]string{
		"system": "mgrid", "b": "1", "timeout": "2s", "strategy": "uniform", "clients": "8", "ops": "100",
		"duration": "0s", "seed": "1", "keys": "0", "key-dist": "uniform", "batch": "1", "fault-schedule": "",
		"churn": "", "suspicion-ttl": "0s", "adversary": "", "reconfig": "", "metrics-addr": "",
		"routes": "", "pool": "1",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %v\nwant %v", got, want)
	}
	// The snapshot flags retired with the pre-BENCHMARK.json apparatus,
	// spelled in halves so a grep for them finds only history.
	for _, gone := range []string{"-bench" + "-json", "-store" + "-label"} {
		if err := runWith(t, gone, "x"); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s: err = %v, want an undefined-flag error", gone, err)
		}
	}
}

// TestRoutesMustCoverResizeTarget checks the order the run path keeps:
// the plan is parsed before anything is dialed, so a route table too
// small for a scheduled resize fails up front.
func TestRoutesMustCoverResizeTarget(t *testing.T) {
	if err := runWith(t); err == nil || !strings.Contains(err.Error(), "-routes is required") {
		t.Errorf("no -routes: err = %v", err)
	}
	err := runWith(t, "-routes", "0-15=127.0.0.1:1", "-reconfig", "at=1s:mgrid:36")
	if err == nil || !strings.Contains(err.Error(), "universe size 36") {
		t.Errorf("16 routes for a 36-server target: err = %v, want a coverage error", err)
	}
}
