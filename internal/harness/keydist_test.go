package harness

import (
	"math/rand"
	"testing"

	"bqs/internal/sim"
)

func TestParseKeyDist(t *testing.T) {
	for spec, want := range map[string]KeyDist{
		"":         {Kind: "uniform"},
		"uniform":  {Kind: "uniform"},
		"zipf:1.1": {Kind: "zipf", S: 1.1},
		"zipf:2":   {Kind: "zipf", S: 2},
	} {
		got, err := ParseKeyDist(spec)
		if err != nil || got != want {
			t.Errorf("ParseKeyDist(%q) = %+v, %v; want %+v", spec, got, err, want)
		}
	}
	for _, bad := range []string{"zipf", "zipf:1", "zipf:0.9", "zipf:x", "pareto"} {
		if _, err := ParseKeyDist(bad); err == nil {
			t.Errorf("ParseKeyDist(%q) accepted", bad)
		}
	}
}

func TestKeyDistSampler(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z, err := ParseKeyDist("zipf:1.2")
	if err != nil {
		t.Fatal(err)
	}
	draw := z.Sampler(16, rng)
	counts := make([]int, 16)
	for i := 0; i < 4000; i++ {
		k := draw()
		if k < 0 || k >= 16 {
			t.Fatalf("zipf draw %d outside [0,16)", k)
		}
		counts[k]++
	}
	// Rank-ordered: the hottest key is key 0, and the skew is real.
	if counts[0] <= counts[15] {
		t.Errorf("zipf:1.2 shows no skew: counts[0]=%d counts[15]=%d", counts[0], counts[15])
	}
	// keys ≤ 1 collapses to a single register.
	if one := z.Sampler(1, rng)(); one != 0 {
		t.Errorf("single-key sampler drew %d", one)
	}
	if KeyName(0, 3) != "" {
		t.Error("Keys=0 must map to the DefaultKey register")
	}
	if KeyName(8, 3) != "k0003" {
		t.Errorf("KeyName(8,3) = %q", KeyName(8, 3))
	}
}

// TestRunKeyedBatchedWorkload drives the shared harness in its keyed,
// batched session mode against an in-memory cluster and checks the
// counters add up with no failures or violations.
func TestRunKeyedBatchedWorkload(t *testing.T) {
	sys, err := BuildSystem("mgrid", 1)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := sim.NewCluster(sys, 1, sim.WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	dist, err := ParseKeyDist("zipf:1.1")
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{Clients: 4, Ops: 48, Keys: 32, Dist: dist, Batch: 8, Seed: 21}
	c := Run(cluster, w)
	if got, want := c.Total(), int64(4*48); got != want {
		t.Errorf("total outcomes %d, want %d", got, want)
	}
	if c.Failures != 0 || c.Violations != 0 {
		t.Errorf("fault-free keyed run had %d failures, %d violations", c.Failures, c.Violations)
	}
	if c.Reads == 0 || c.Writes == 0 {
		t.Errorf("workload not mixed: %d reads, %d writes", c.Reads, c.Writes)
	}
}
