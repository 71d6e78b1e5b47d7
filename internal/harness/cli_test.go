package harness

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bqs/internal/faults"
	"bqs/internal/obs"
	"bqs/internal/sim"
	"bqs/internal/systems"
	"bqs/internal/wire"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed — the harness reports on stdout, and the lines CI greps are
// part of its contract.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	out := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	func() {
		defer func() {
			os.Stdout = old
			w.Close()
		}()
		fn()
	}()
	return <-out
}

// planFromArgv parses a command line through the shared flag set with
// bqs-client's defaults and plans it, exactly as the binaries do.
func planFromArgv(t *testing.T, argv ...string) (*Flags, *Plan) {
	t.Helper()
	f, plan, err := tryPlan(t, argv...)
	if err != nil {
		t.Fatalf("plan %v: %v", argv, err)
	}
	return f, plan
}

// tryPlan is planFromArgv returning Plan's error instead of failing.
func tryPlan(t *testing.T, argv ...string) (*Flags, *Plan, error) {
	t.Helper()
	f := NewFlags("mgrid", 1, 2*time.Second)
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f.Register(fs)
	if err := fs.Parse(argv); err != nil {
		t.Fatalf("parse %v: %v", argv, err)
	}
	sys, err := BuildSystem(f.System, f.B)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := f.Plan(sys)
	return f, plan, err
}

// TestPlanRejectsOutOfRangeWorkload pins the range check: each workload
// flag outside its range fails Plan with an error that names the flag,
// instead of running zero operations or reinterpreting the value; the
// boundary values stay accepted.
func TestPlanRejectsOutOfRangeWorkload(t *testing.T) {
	for _, tc := range []struct {
		argv []string
		flag string // "" = accepted
	}{
		{[]string{"-clients", "0"}, "-clients"},
		{[]string{"-clients", "-3"}, "-clients"},
		{[]string{"-ops", "-1"}, "-ops"},
		{[]string{"-ops", "0"}, "-ops"},
		{[]string{"-keys", "-5"}, "-keys"},
		{[]string{"-batch", "0"}, "-batch"},
		{[]string{"-batch", "-2"}, "-batch"},
		{[]string{"-timeout", "-1s"}, "-timeout"},
		{[]string{"-duration", "-1s"}, "-duration"},
		{[]string{"-suspicion-ttl", "-1ms"}, "-suspicion-ttl"},
		{[]string{"-clients", "1", "-ops", "1", "-keys", "0", "-batch", "1", "-timeout", "0s", "-suspicion-ttl", "0s"}, ""},
		{[]string{"-ops", "0", "-duration", "10ms"}, ""},
	} {
		_, _, err := tryPlan(t, tc.argv...)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("%v: %v, want accepted", tc.argv, err)
		case tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")):
			t.Errorf("%v: err = %v, want one naming %s", tc.argv, err, tc.flag)
		}
	}
}

// newCluster builds the plan's cluster with the options both binaries
// pass, plus the fleet's own.
func newCluster(t *testing.T, f *Flags, plan *Plan, reg *obs.Registry, opts ...sim.Option) *sim.Cluster {
	t.Helper()
	opts = append(opts, sim.WithSeed(f.Seed), sim.WithMetrics(reg))
	if plan.Strategy != nil {
		opts = append(opts, plan.Strategy)
	}
	cluster, err := sim.NewCluster(plan.Sys, f.B, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	return cluster
}

// memoryFleet builds the plan's system the way bqs-sim does: in-memory
// servers, the Cluster its own Flipper.
func memoryFleet(t *testing.T, f *Flags, plan *Plan, reg *obs.Registry) (*sim.Cluster, faults.Flipper) {
	cluster := newCluster(t, f, plan, reg)
	return cluster, cluster
}

// wireFleet builds the same system the way bqs-client does: every replica
// (up to the largest resize target) behind a loopback wire.Server, an
// epoch-aware wire client as both Transport and Flipper.
func wireFleet(t *testing.T, f *Flags, plan *Plan, reg *obs.Registry) (*sim.Cluster, faults.Flipper) {
	t.Helper()
	n := MaxReconfigUniverse(plan.Sys.UniverseSize(), plan.Reconfig)
	replicas := make(map[int]*sim.Server, n)
	routes := make(map[int]string, n)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		replicas[i] = sim.NewServer(i)
		routes[i] = lis.Addr().String()
	}
	srv := wire.NewServer(replicas)
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	follower := &EpochFollower{}
	tr, err := wire.Dial(routes, wire.WithMetrics(reg), wire.WithEpochs(follower.OnStale))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	cluster := newCluster(t, f, plan, reg, sim.WithTransport(func([]*sim.Server) sim.Transport { return tr }))
	follower.Bind(tr, cluster)
	return cluster, tr
}

// TestExecuteRunPath drives the run path both binaries share — argv →
// Flags → Plan → Execute — against an in-memory cluster and against the
// same system over loopback TCP, one case per driver plus the keyed
// batched data plane.
func TestExecuteRunPath(t *testing.T) {
	cases := []struct {
		name      string
		argv      []string
		wantEpoch uint64
		wantLines []string // regexps, each must match the captured report
	}{
		{
			name:      "fault schedule",
			argv:      []string{"-duration", "300ms", "-fault-schedule", "20ms:3:crashed,150ms:3:correct"},
			wantLines: []string{`churn: driving 2 flips over 150ms \(suspicion-ttl 50ms\)`, `churn: 2 flips applied, 0 missed`},
		},
		{
			name:      "adversary",
			argv:      []string{"-duration", "300ms", "-adversary", "random,b=1,interval=20ms"},
			wantLines: []string{`adversary: random scheduler, budget 1, re-targeting every 20ms`, `adversary: \d+ flips over \d+ rounds, 0 missed`},
		},
		{
			name:      "reconfig",
			argv:      []string{"-duration", "500ms", "-keys", "8", "-reconfig", "at=100ms:mgrid:36"},
			wantEpoch: 1,
			wantLines: []string{`reconfig: epoch 1 cutover to mgrid:36 \(n=36\)`, `reconfig: 1 applied, 0 aborted, 0 missed`, `epoch:      1 `},
		},
		{
			name:      "reconfig to mpath",
			argv:      []string{"-duration", "300ms", "-keys", "8", "-reconfig", "at=100ms:mpath:36"},
			wantEpoch: 1,
			wantLines: []string{`reconfig: epoch 1 cutover to mpath:36 \(n=36\)`, `epoch:      1 \(M-Path\(d=6,b=1\), n=36\)`},
		},
		{
			name:      "reconfig to rt",
			argv:      []string{"-duration", "300ms", "-keys", "8", "-reconfig", "at=100ms:rt:64"},
			wantEpoch: 1,
			wantLines: []string{`reconfig: epoch 1 cutover to rt:64 \(n=64\)`, `epoch:      1 \(RT\(4,3,h=3\), n=64\)`},
		},
		{
			name:      "boot compose",
			argv:      []string{"-system", "compose:5x5", "-ops", "40", "-keys", "8"},
			wantLines: []string{`paper bounds:  L\(Q\) ≥ 0\.6400 \(Thm 4\.1\)`},
		},
		{
			name:      "keyed batched",
			argv:      []string{"-ops", "40", "-batch", "16", "-keys", "64", "-key-dist", "zipf:1.1"},
			wantLines: []string{`workload: 8 clients × 40 ops, 64 keys zipf:1\.1, batch 16 \(test\)`},
		},
	}
	fleets := []struct {
		name  string
		build func(*testing.T, *Flags, *Plan, *obs.Registry) (*sim.Cluster, faults.Flipper)
	}{{"memory", memoryFleet}, {"wire", wireFleet}}
	for _, tc := range cases {
		for _, fl := range fleets {
			t.Run(tc.name+"/"+fl.name, func(t *testing.T) {
				f, plan := planFromArgv(t, tc.argv...)
				reg := obs.NewRegistry()
				cluster, flipper := fl.build(t, f, plan, reg)
				var (
					c   Counters
					sum Summary
					err error
				)
				out := captureStdout(t, func() { c, sum, err = plan.Execute(cluster, flipper, reg, "(test)") })
				if err != nil {
					t.Fatalf("Execute: %v\n%s", err, out)
				}
				if c.Violations != 0 || c.Succeeded() == 0 {
					t.Fatalf("run not clean: %+v\n%s", c, out)
				}
				if sum.Epoch != tc.wantEpoch {
					t.Fatalf("Summary.Epoch = %d, want %d\n%s", sum.Epoch, tc.wantEpoch, out)
				}
				want := append([]string{`(?m)^workload: .* \(test\)$`, `(?m)^result: `, `(?m)^measured load: `}, tc.wantLines...)
				for _, re := range want {
					if !regexp.MustCompile(re).MatchString(out) {
						t.Errorf("report lacks %q:\n%s", re, out)
					}
				}
			})
		}
	}
}

// countingFlipper counts the flips that reach the fleet, so a test can
// tell whether a controller is still alive.
type countingFlipper struct {
	faults.Flipper
	flips atomic.Int64
}

func (c *countingFlipper) Flip(ctx context.Context, server int, b sim.Behavior) error {
	c.flips.Add(1)
	return c.Flipper.Flip(ctx, server, b)
}

// TestExecuteStopsEveryDriverOnError pins the shutdown contract: when one
// driver reports an error — an aborted resize at Stop, an adversary
// refused at start — every driver already running is still cancelled,
// waited for and summarized before Execute returns. The schedule outlives
// the workload by seconds, so a controller left running keeps flipping
// after the call.
func TestExecuteStopsEveryDriverOnError(t *testing.T) {
	var schedule []string
	for i := 1; i <= 300; i++ {
		to := "crashed"
		if i%2 == 0 {
			to = "correct"
		}
		schedule = append(schedule, fmt.Sprintf("%dms:3:%s", 10*i, to))
	}
	churn := []string{"-duration", "150ms", "-fault-schedule", strings.Join(schedule, ",")}
	cases := []struct {
		name      string
		argv      []string
		wantErr   string
		wantLines []string
	}{
		{
			name:    "aborted resize",
			argv:    append([]string{"-adversary", "random,b=1,interval=10ms", "-reconfig", "at=20ms:mgrid:36"}, churn...),
			wantErr: "reconfig to mgrid:36",
			wantLines: []string{`reconfig: 0 applied, 1 aborted, 0 missed`,
				`adversary: \d+ flips over \d+ rounds, \d+ missed`, `churn: \d+ flips applied, \d+ missed`},
		},
		{
			name:      "adversary refused",
			argv:      append([]string{"-adversary", "random,b=99"}, churn...),
			wantErr:   "adversary budget",
			wantLines: []string{`churn: \d+ flips applied, \d+ missed`},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, plan := planFromArgv(t, tc.argv...)
			if len(plan.Reconfig) > 0 {
				// A record for another masking bound is refused at propose
				// time: the step aborts and the resize driver's Stop reports it.
				plan.Reconfig[0].Rec.B = f.B + 1
			}
			reg := obs.NewRegistry()
			cluster, _ := memoryFleet(t, f, plan, reg)
			flipper := &countingFlipper{Flipper: cluster}

			var err error
			out := captureStdout(t, func() { _, _, err = plan.Execute(cluster, flipper, reg, "(test)") })
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Execute error = %v, want %q\n%s", err, tc.wantErr, out)
			}
			for _, re := range tc.wantLines {
				if !regexp.MustCompile(re).MatchString(out) {
					t.Errorf("summary line %q not printed:\n%s", re, out)
				}
			}
			if strings.Contains(out, "measured load:") {
				t.Errorf("a failed run must not print a report:\n%s", out)
			}
			after := flipper.flips.Load()
			time.Sleep(80 * time.Millisecond)
			if now := flipper.flips.Load(); now != after {
				t.Fatalf("%d flips arrived after Execute returned — a controller outlived the call", now-after)
			}
		})
	}
}

// TestSharedFlags pins what the shared flag set decides itself: the three
// constructor arguments become the -system/-b/-timeout defaults, and the
// suspicion-TTL default arms under churn and under an adversary alike.
// (Each binary's full surface, retired flags included, is pinned by its
// own TestFlagSurface.)
func TestSharedFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	NewFlags("threshold", 3, 0).Register(fs)
	for name, def := range map[string]string{"system": "threshold", "b": "3", "timeout": "0s"} {
		if got := fs.Lookup(name).DefValue; got != def {
			t.Errorf("-%s default %q, want %q", name, got, def)
		}
	}
	for _, tc := range []struct {
		argv []string
		ttl  time.Duration
	}{
		{[]string{"-ops", "1"}, 0},
		{[]string{"-fault-schedule", "10ms:0:crashed"}, DefaultChurnSuspicionTTL},
		{[]string{"-adversary", "random,b=1"}, DefaultChurnSuspicionTTL},
		{[]string{"-adversary", "random,b=1", "-suspicion-ttl", "5ms"}, 5 * time.Millisecond},
	} {
		if _, plan := planFromArgv(t, tc.argv...); plan.Workload.SuspicionTTL != tc.ttl {
			t.Errorf("%v: suspicion TTL %v, want %v", tc.argv, plan.Workload.SuspicionTTL, tc.ttl)
		}
	}
}

// TestKindListsAgree holds the three places a user reads the list of
// constructions to the registry: the -system help (generated from it) and
// Record.Kind's doc comment (typed) name exactly its kinds, in its order.
func TestKindListsAgree(t *testing.T) {
	kinds := systems.Kinds()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	NewFlags("mgrid", 1, 0).Register(fs)
	if usage := fs.Lookup("system").Usage; !strings.Contains(usage, strings.Join(kinds, "|")) {
		t.Errorf("-system help %q does not list %s", usage, strings.Join(kinds, "|"))
	}
	src, err := os.ReadFile("../reconfig/record.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?s)// Kind names the construction, a row of the systems registry:(.*?)\n\tKind string`).FindSubmatch(src)
	if m == nil {
		t.Fatal("Record.Kind's doc comment not found in ../reconfig/record.go")
	}
	doc := regexp.MustCompile(`\(.*?\)|//|\bor\b`).ReplaceAllString(string(m[1]), "")
	got := strings.FieldsFunc(doc, func(r rune) bool { return r == ',' || r == '.' || r == ' ' || r == '\n' || r == '\t' })
	if strings.Join(got, "|") != strings.Join(kinds, "|") {
		t.Errorf("Record.Kind's doc lists %v, the registry %v", got, kinds)
	}
}
