//go:build !race

// Behind !race for the reason the obs pins are: the race detector charges
// its own bookkeeping allocations to the measured function.

package systems

import (
	"math/rand"
	"testing"

	"bqs/internal/bitset"
	"bqs/internal/core"
)

// TestSelectQuorumAllocs pins the picker's allocation budget for every
// construction that draws whole lines through lineFamily.addFree: the
// quorum bitset and little else on the straight-line draw, and no per-pick
// graph on M-Path's pooled flow kernel.
func TestSelectQuorumAllocs(t *testing.T) {
	threshold, _ := NewMaskingThreshold(13, 3)
	grid, _ := NewGrid(7, 2)
	mgrid, _ := NewMGrid(7, 3)
	mpath, _ := NewMPath(10, 3)
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		sys   core.System
		name  string
		dead  bitset.Set
		limit float64
	}{
		{threshold, "fault-free", bitset.Set{}, 2},
		{grid, "fault-free", bitset.Set{}, 2},
		{mgrid, "fault-free", bitset.Set{}, 2},
		{mpath, "fault-free", bitset.Set{}, 6},
		{mpath, "diagonal dead (max-flow on both axes)", diagonalDead(mpath), 8},
	} {
		got := testing.AllocsPerRun(200, func() {
			if _, err := c.sys.SelectQuorum(rng, c.dead); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s %s: %.0f allocs per pick", c.sys.Name(), c.name, got)
		if got > c.limit {
			t.Errorf("%s %s: %.0f allocs per pick, want ≤ %.0f", c.sys.Name(), c.name, got, c.limit)
		}
	}
}
