//go:build !race

// The allocation pin lives behind !race: the race detector charges
// bookkeeping allocations to the measured function.

package sim

import (
	"fmt"
	"testing"

	"bqs/internal/core"
	"bqs/internal/store"
	"bqs/internal/systems"
)

// TestQuorumOpAllocs pins the diet of a keyed operation on the in-memory
// path, Mem stores behind every server: a phase probes its quorum inline
// and gathers the replies in one slice, so what is left is the pick, the
// member and reply slices, and the acceptance rule. Every key is written
// to every server before measuring, so register creation is not counted.
func TestQuorumOpAllocs(t *testing.T) {
	threshold, err := systems.NewMaskingThreshold(13, 3)
	if err != nil {
		t.Fatal(err)
	}
	mpath, err := systems.NewMPath(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sys             core.System
		maxWrite, maxRd float64
	}{
		{threshold, 6, 3},
		{mpath, 8, 4},
	} {
		c, err := NewCluster(tc.sys, 3, WithSeed(7),
			WithStores(func(int) (store.Store, error) { return store.NewMem(), nil }))
		if err != nil {
			t.Fatal(err)
		}
		cl := c.NewClient(1)
		keys := make([]string, 16)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%06d", i)
			for s := 0; s < c.N(); s++ {
				c.Server(s).HandleWrite(keys[i], TaggedValue{Value: "warm", TS: Timestamp{Seq: 1}})
			}
		}
		var i int
		write := testing.AllocsPerRun(200, func() {
			i++
			if err := cl.WriteKey(ctx, keys[i%len(keys)], "value"); err != nil {
				t.Fatalf("%s: write: %v", tc.sys.Name(), err)
			}
		})
		read := testing.AllocsPerRun(200, func() {
			i++
			if _, err := cl.ReadKey(ctx, keys[i%len(keys)]); err != nil {
				t.Fatalf("%s: read: %v", tc.sys.Name(), err)
			}
		})
		t.Logf("%s: WriteKey %v allocs, ReadKey %v allocs", tc.sys.Name(), write, read)
		if write > tc.maxWrite {
			t.Errorf("%s: WriteKey allocates %v times, want ≤ %v", tc.sys.Name(), write, tc.maxWrite)
		}
		if read > tc.maxRd {
			t.Errorf("%s: ReadKey allocates %v times, want ≤ %v", tc.sys.Name(), read, tc.maxRd)
		}
		c.Close()
	}
}
