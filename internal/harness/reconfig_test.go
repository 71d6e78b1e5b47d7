package harness

import (
	"strings"
	"testing"
	"time"

	"bqs/internal/sim"
)

func TestParseReconfigSchedule(t *testing.T) {
	steps, err := ParseReconfigSchedule("at=5s:mgrid:36,at=20s:compose:6x6", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 {
		t.Fatalf("got %d steps, want 2", len(steps))
	}
	if steps[0].At != 5*time.Second || steps[0].Target != "mgrid:36" || steps[0].Rec.Universe != 36 {
		t.Errorf("step 0 = %+v", steps[0])
	}
	if steps[1].At != 20*time.Second || steps[1].Rec.Kind != "compose" || steps[1].Rec.Outer != 6 {
		t.Errorf("step 1 = %+v", steps[1])
	}
	for _, s := range steps {
		if s.Rec.B != 1 {
			t.Errorf("step %+v lost the masking bound", s)
		}
		if s.Rec.Epoch != 0 {
			t.Errorf("step %+v pinned an epoch; 0 (\"next\") expected", s)
		}
	}
	if got, err := ParseReconfigSchedule("", 1); err != nil || got != nil {
		t.Errorf("empty spec: %v, %v; want nil, nil", got, err)
	}
}

func TestParseReconfigScheduleRejects(t *testing.T) {
	cases := map[string]string{
		"no-at-prefix":     "5s:mgrid:36",
		"no-target":        "at=5s",
		"bad-duration":     "at=soon:mgrid:36",
		"negative-offset":  "at=-1s:mgrid:36",
		"bad-target":       "at=5s:mgrid:37", // not a perfect square
		"unknown-kind":     "at=5s:pyramid:36",
		"unordered-steps":  "at=5s:mgrid:36,at=5s:mgrid:25",
		"decreasing-steps": "at=5s:mgrid:36,at=1s:mgrid:25",
	}
	for name, spec := range cases {
		if _, err := ParseReconfigSchedule(spec, 1); err == nil {
			t.Errorf("%s: accepted %q", name, spec)
		}
	}
}

func TestMaxReconfigUniverse(t *testing.T) {
	steps, err := ParseReconfigSchedule("at=1s:mgrid:36,at=2s:threshold:25", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := MaxReconfigUniverse(16, steps); got != 36 {
		t.Errorf("MaxReconfigUniverse(16) = %d, want 36", got)
	}
	if got := MaxReconfigUniverse(49, steps); got != 49 {
		t.Errorf("MaxReconfigUniverse(49) = %d, want 49", got)
	}
	if got := MaxReconfigUniverse(16, nil); got != 16 {
		t.Errorf("MaxReconfigUniverse(16, nil) = %d, want 16", got)
	}
}

// TestReconfigDriverEndToEnd replays a two-step schedule against a live
// in-memory cluster under a concurrent workload and checks the driver's
// bookkeeping, the cluster's final epoch, and that the run stayed safe.
func TestReconfigDriverEndToEnd(t *testing.T) {
	sys, err := BuildSystem("mgrid", 1)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := sim.NewCluster(sys, 1, sim.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	steps, err := ParseReconfigSchedule("at=50ms:mgrid:36,at=150ms:threshold:25", 1)
	if err != nil {
		t.Fatal(err)
	}
	d := StartReconfig(cluster, steps)
	c := Run(cluster, Workload{Clients: 4, Duration: 400 * time.Millisecond, Keys: 8, Seed: 7})
	if err := d.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if got := cluster.Epoch(); got != 2 {
		t.Fatalf("final epoch %d, want 2", got)
	}
	if name := cluster.System().Name(); !strings.Contains(name, "Thresh") {
		t.Fatalf("final system %q, want the threshold target", name)
	}
	if c.Violations != 0 {
		t.Fatalf("%d safety violations across the resizes", c.Violations)
	}
	if c.Failures != 0 {
		t.Fatalf("%d operations failed across the resizes", c.Failures)
	}
	sum := Report(cluster, sys, 1, c)
	if sum.Epoch != 2 {
		t.Fatalf("Summary.Epoch = %d, want 2", sum.Epoch)
	}
}

// TestReconfigDriverNil pins the no-schedule contract: a nil driver
// whose Stop is a no-op, so call sites need no branching.
func TestReconfigDriverNil(t *testing.T) {
	var d *Driver
	if err := d.Stop(); err != nil {
		t.Fatalf("nil Stop: %v", err)
	}
	if StartReconfig(nil, nil) != nil {
		t.Fatal("empty schedule must return a nil driver")
	}
}
