//go:build !race

// Behind !race for the reason the obs pins are: the race detector charges
// its own bookkeeping allocations to the measured function.

package systems

import (
	"math/rand"
	"testing"

	"bqs/internal/bitset"
)

// TestMPathSelectAllocs pins the picker's allocation budget on both paths:
// straight lines (the quorum bitset and little else) and the pooled flow
// kernel (no per-pick graph).
func TestMPathSelectAllocs(t *testing.T) {
	m, _ := NewMPath(10, 3)
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name  string
		dead  bitset.Set
		limit float64
	}{
		{"fault-free", bitset.New(m.UniverseSize()), 6},
		{"diagonal dead (max-flow on both axes)", diagonalDead(m), 8},
	} {
		got := testing.AllocsPerRun(200, func() {
			if _, err := m.SelectQuorum(rng, c.dead); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per pick", c.name, got)
		if got > c.limit {
			t.Errorf("%s: %.0f allocs per pick, want ≤ %.0f", c.name, got, c.limit)
		}
	}
}
