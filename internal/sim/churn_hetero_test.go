package sim_test

import (
	"math"
	"reflect"
	"testing"
	"time"

	. "bqs/internal/faults"
)

func TestChurnCorrelatedGroupFlipsTogether(t *testing.T) {
	cc := ChurnConfig{
		MTBF:   50 * time.Millisecond,
		MTTR:   20 * time.Millisecond,
		Groups: []ChurnGroup{{Servers: []int{1, 3, 5}, Correlated: true}},
	}
	sched, err := cc.Schedule(8, time.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Group members' events come in (At, Behavior)-identical triples; the
	// domain process must produce the same timeline for each member.
	perServer := map[int][]FaultEvent{}
	for _, e := range sched.Events() {
		perServer[e.Server] = append(perServer[e.Server], e)
	}
	if len(perServer[1]) == 0 {
		t.Fatal("correlated group produced no events")
	}
	for _, s := range []int{3, 5} {
		if len(perServer[s]) != len(perServer[1]) {
			t.Fatalf("server %d has %d events, server 1 has %d", s, len(perServer[s]), len(perServer[1]))
		}
		for i, e := range perServer[s] {
			ref := perServer[1][i]
			if e.At != ref.At || e.Behavior != ref.Behavior {
				t.Fatalf("server %d event %d = %v, server 1 = %v", s, i, e, ref)
			}
		}
	}
	// Non-members keep their individual streams: same as a group-free run.
	plain, err := ChurnConfig{MTBF: cc.MTBF, MTTR: cc.MTTR}.Schedule(8, time.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	pick := func(s *FaultSchedule, server int) []FaultEvent {
		var out []FaultEvent
		for _, e := range s.Events() {
			if e.Server == server {
				out = append(out, e)
			}
		}
		return out
	}
	for _, s := range []int{0, 2, 4, 6, 7} {
		if !reflect.DeepEqual(pick(sched, s), pick(plain, s)) {
			t.Fatalf("server %d stream perturbed by an unrelated domain group", s)
		}
	}
}

func TestChurnGroupRateOverride(t *testing.T) {
	// Servers 4-7 churn 10x faster than the base: they should show many
	// more events over the same horizon.
	cc := ChurnConfig{
		MTBF: time.Second,
		MTTR: 500 * time.Millisecond,
		Groups: []ChurnGroup{{
			Servers: []int{4, 5, 6, 7},
			MTBF:    100 * time.Millisecond,
			MTTR:    50 * time.Millisecond,
		}},
	}
	sched, err := cc.Schedule(8, 10*time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	slow, fast := 0, 0
	for _, e := range sched.Events() {
		if e.Server >= 4 {
			fast++
		} else {
			slow++
		}
	}
	if fast < 4*slow {
		t.Errorf("fast group has %d events vs %d base — override not applied", fast, slow)
	}
	// Reproducibility must extend to groups.
	again, err := cc.Schedule(8, 10*time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sched.Events(), again.Events()) {
		t.Error("grouped schedule not reproducible")
	}
}

func TestChurnGroupValidation(t *testing.T) {
	base := ChurnConfig{MTBF: time.Second, MTTR: time.Second}
	cases := []ChurnConfig{
		{MTBF: base.MTBF, MTTR: base.MTTR, Groups: []ChurnGroup{{}}},                                           // empty group
		{MTBF: base.MTBF, MTTR: base.MTTR, Groups: []ChurnGroup{{Servers: []int{9}}}},                          // out of universe
		{MTBF: base.MTBF, MTTR: base.MTTR, Groups: []ChurnGroup{{Servers: []int{1}}, {Servers: []int{1}}}},     // double claim
		{MTBF: base.MTBF, MTTR: base.MTTR, Groups: []ChurnGroup{{Servers: []int{1}, MTBF: -time.Millisecond}}}, // bad rate
	}
	for i, cc := range cases {
		if _, err := cc.Schedule(8, time.Second, 1); err == nil {
			t.Errorf("config %d accepted", i)
		}
		if _, err := cc.FailureModel(8); err == nil {
			t.Errorf("config %d FailureModel accepted", i)
		}
	}
}

func TestChurnFailureModel(t *testing.T) {
	cc := ChurnConfig{
		MTBF: 300 * time.Millisecond,
		MTTR: 100 * time.Millisecond, // base: down 0.25
		Groups: []ChurnGroup{
			{Servers: []int{2, 3}, MTBF: 100 * time.Millisecond, MTTR: 100 * time.Millisecond}, // down 0.5
			{Servers: []int{4, 5}, Correlated: true, MTBF: 900 * time.Millisecond},             // domain, down 0.1
		},
	}
	want := []float64{0.25, 0.25, 0.5, 0.5, 0.1, 0.1} // each server's MTTR/(MTBF+MTTR)
	m, err := cc.FailureModel(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Domains) != 1 || m.Domains[0].P != 0.1 || !reflect.DeepEqual(m.Domains[0].Members, []int{4, 5}) {
		t.Fatalf("domains = %+v", m.Domains)
	}
	// Correlated members carry no independent term; the domain is their
	// whole marginal, so the model's marginals are the stationary down
	// probabilities.
	marginals := m.DownProbabilities(6)
	for i := range want {
		if math.Abs(marginals[i]-want[i]) > 1e-12 {
			t.Errorf("model marginal[%d] = %g, want %g", i, marginals[i], want[i])
		}
	}
}

func TestParseChurnGroups(t *testing.T) {
	cc, err := ParseChurn("mtbf=1s,mttr=100ms; servers=4-7,mtbf=300ms; domain=0-1+3,mttr=200ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(cc.Groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(cc.Groups))
	}
	g0, g1 := cc.Groups[0], cc.Groups[1]
	if g0.Correlated || !reflect.DeepEqual(g0.Servers, []int{4, 5, 6, 7}) || g0.MTBF != 300*time.Millisecond || g0.MTTR != 0 {
		t.Errorf("group 0 = %+v", g0)
	}
	if !g1.Correlated || !reflect.DeepEqual(g1.Servers, []int{0, 1, 3}) || g1.MTTR != 200*time.Millisecond {
		t.Errorf("group 1 = %+v", g1)
	}
	// Trailing empty clause is fine; single-clause specs unchanged.
	if _, err := ParseChurn("mtbf=1s,mttr=1s;"); err != nil {
		t.Errorf("trailing semicolon rejected: %v", err)
	}
	bad := []string{
		"mtbf=1s,mttr=1s; mtbf=2s",                // group without members
		"mtbf=1s,mttr=1s; servers=0,domain=1",     // members twice
		"mtbf=1s,mttr=1s; servers=0,down=crashed", // down is base-only
		"mtbf=1s,mttr=1s; domain=0+0",             // duplicate member
		"mtbf=1s,mttr=1s; domain=x",               // bad member
		"; servers=0",                             // no base
	}
	for _, spec := range bad {
		if _, err := ParseChurn(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func FuzzParseChurn(f *testing.F) {
	for _, seed := range []string{
		"mtbf=300ms,mttr=100ms",
		"mtbf=300ms, mttr=100ms, down=byz-stale, servers=2-4",
		"mtbf=1s,mttr=100ms; servers=4-7,mtbf=300ms; domain=0-1+3,mttr=200ms",
		"mtbf=1s,mttr=1s,recover=restart",
		"", ";", "mtbf=1s", "mtbf=1s,mttr=1s;servers=0,servers=1",
		"mtbf=1s,mttr=1s;domain=0+0", "mtbf=-1s,mttr=1s", "a=b",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cc, err := ParseChurn(spec)
		if err != nil {
			return
		}
		// Anything accepted must survive model conversion and scheduling
		// over a universe that covers it, or fail with an error — never
		// panic. Universe: the largest index mentioned plus one.
		n := 1
		for _, s := range cc.Servers {
			if s >= n {
				n = s + 1
			}
		}
		for _, g := range cc.Groups {
			for _, s := range g.Servers {
				if s >= n {
					n = s + 1
				}
			}
		}
		if n > 1024 {
			t.Skip("universe too large to schedule")
		}
		if m, err := cc.FailureModel(n); err == nil {
			if err := m.Validate(n); err != nil {
				t.Fatalf("ParseChurn(%q) produced invalid FailureModel: %v", spec, err)
			}
			if _, err := cc.Schedule(n, 50*time.Millisecond, 1); err != nil {
				// Schedule may still reject behaviors (e.g. down=correct);
				// that's an error path, not a crash.
				_ = err
			}
		}
	})
}
