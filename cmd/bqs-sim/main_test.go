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
	flag.CommandLine = flag.NewFlagSet("bqs-sim", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	os.Args = append([]string{"bqs-sim"}, args...)
	return run()
}

// TestFlagSurface pins every flag name and default bqs-sim accepts: the
// shared set registered by internal/harness with this binary's three
// defaults (threshold, b=3, no deadline) plus its ten own flags.
func TestFlagSurface(t *testing.T) {
	if err := runWith(t, "-h"); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	got := map[string]string{}
	flag.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	want := map[string]string{
		"system": "threshold", "b": "3", "timeout": "0s", "strategy": "uniform", "clients": "8", "ops": "100",
		"duration": "0s", "seed": "1", "keys": "0", "key-dist": "uniform", "batch": "1", "fault-schedule": "",
		"churn": "", "suspicion-ttl": "0s", "adversary": "", "reconfig": "", "metrics-addr": "",
		"byzantine": "3", "crashed": "0", "drop": "0", "latency": "0s", "jitter": "0s",
		"availability": "", "p-vector": "", "domains": "", "data-dir": "", "fsync": "true",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %v\nwant %v", got, want)
	}
	// The snapshot flag retired with the pre-BENCHMARK.json apparatus,
	// spelled in halves so a grep for it finds only history; the serial
	// probe mode retired when every in-memory phase became one call.
	for _, gone := range []string{"-bench" + "-json", "-deter" + "ministic"} {
		if err := runWith(t, gone, "out.json"); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s: err = %v, want an undefined-flag error", gone, err)
		}
	}
}

// TestAvailabilityRejectsWorkloadFlags checks -availability refuses every
// flag outside its allow-list — shared or own — instead of silently
// running a different experiment than the command line describes.
func TestAvailabilityRejectsWorkloadFlags(t *testing.T) {
	composes := map[string]bool{"system": true, "b": true, "seed": true, "availability": true,
		"metrics-addr": true, "p-vector": true, "domains": true, "adversary": true}
	if err := runWith(t, "-h"); !errors.Is(err, flag.ErrHelp) {
		t.Fatal(err)
	}
	var names []string
	flag.VisitAll(func(f *flag.Flag) {
		if !composes[f.Name] {
			names = append(names, f.Name+"="+f.DefValue)
		}
	})
	if len(names) != 19 {
		t.Fatalf("%d flags outside the allow-list, want 19: %v", len(names), names)
	}
	for _, set := range names {
		name, _, _ := strings.Cut(set, "=")
		err := runWith(t, "-system", "threshold", "-b", "1", "-availability", "p=0.1,epochs=5", "-"+set)
		if err == nil || !strings.Contains(err.Error(), "drop -"+name) {
			t.Errorf("-availability with -%s: err = %v, want a conflict naming it", name, err)
		}
	}
}
