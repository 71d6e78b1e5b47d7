//go:build !race

// The allocation pin lives behind !race: the race detector charges
// bookkeeping allocations to the measured function.

package sim

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"bqs/internal/core"
	"bqs/internal/store"
	"bqs/internal/systems"
)

// TestQuorumOpAllocs pins the diet of a keyed operation on the in-memory
// path, Mem stores behind every server: a phase probes its quorum inline,
// its member and reply slices come from the operation's pooled scratch,
// and the acceptance rule's vote tally stays on the stack, so what is left
// is each phase's pick — the quorum bitset SelectQuorum returns, plus one
// allocation inside M-Path's picker. Every key is written to every server
// before measuring, so register creation is not counted.
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
		{threshold, 2, 1},
		{mpath, 4, 2},
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

// TestHeapPerKey pins what holding a key costs: Threshold(13,3) on Mem
// stores, 16,384 keys each written once with a 64-byte value, live heap
// measured after a collection. Each key sits at a write quorum of ten
// servers, so this is ten registers, the key and value strings they
// share, and the writer's per-key sequence floor. A server that kept its
// own register map beside its store's measured 2,527 B per key, Mem
// stores holding a Go map of Records 1,381 B, and the slab-backed table
// 1,185 B while a Record carried a signature slice (72 B). At 48 B a
// Record measures 919 B, and the pin is that plus 10 %.
func TestHeapPerKey(t *testing.T) {
	const keys = 1 << 14
	sys, err := systems.NewMaskingThreshold(13, 3)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := NewCluster(sys, 3, WithSeed(7),
		WithStores(func(int) (store.Store, error) { return store.NewMem(), nil }))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.NewClient(1)
	for i := range keys {
		if err := cl.WriteKey(ctx, fmt.Sprintf("key-%06d", i), fmt.Sprintf("%064d", i)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(cl)
	perKey := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / keys
	t.Logf("%.0f B of live heap per key", perKey)
	if perKey > 1011 {
		t.Errorf("holding a key takes %.0f B of live heap, want ≤ 1011", perKey)
	}
}

// TestDurableWritePhaseAllocs pins what one in-memory write phase over
// Disk stores (fsync off) allocates. The phase stages the write at every
// member of a Threshold(13,3) quorum and then waits on each member's
// commit, so what is left is each Disk's group commit (a Commit, its
// channel and the flusher goroutine's closure) plus the phase's slice of
// commits: 31 allocations. Fanning the phase out, with a goroutine per
// member waiting on its own commit, measured 42.
func TestDurableWritePhaseAllocs(t *testing.T) {
	sys, err := systems.NewMaskingThreshold(13, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c, err := NewCluster(sys, 3, WithStores(func(id int) (store.Store, error) {
		return store.Open(filepath.Join(dir, fmt.Sprintf("server-%04d", id)), store.WithFsync(false))
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q, err := c.NewClient(1).pickQuorum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	members := q.Elements()
	out := make([]Response, len(members))
	req := Request{Op: OpWrite, Key: "k", Value: TaggedValue{Value: "v"}}
	allocs := testing.AllocsPerRun(100, func() {
		req.Value.TS.Seq++
		if err := c.probeQuorum(ctx, 1, members, req, nil, out); err != nil {
			t.Fatal(err)
		}
		for k, resp := range out {
			if !resp.OK {
				t.Fatalf("server %d refused the write", members[k])
			}
		}
	})
	t.Logf("one write phase over %d Disk stores: %v allocs", len(members), allocs)
	if allocs > 31 {
		t.Errorf("a write phase over Disk stores allocates %v times, want ≤ 31", allocs)
	}
}

// TestLatencyPhaseAllocs pins what one read phase of a Threshold(13,3)
// quorum costs under a latency model: the built-in transport serves it on
// the caller's goroutine, so what is left is the slice of members in
// arrival order and the one timer the phase sleeps on. A goroutine per
// member, each with a timer of its own, measured 42.
func TestLatencyPhaseAllocs(t *testing.T) {
	sys, err := systems.NewMaskingThreshold(13, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(sys, 3, WithLatency(20*time.Microsecond, 20*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	q, err := c.NewClient(1).pickQuorum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	members := q.Elements()
	out := make([]Response, len(members))
	req := Request{Op: OpRead, Key: "k", ReaderID: 1}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.probeQuorum(ctx, 1, members, req, nil, out); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one read phase of %d members under a latency model: %v allocs", len(members), allocs)
	if allocs > 4 {
		t.Errorf("a latency-modelled read phase allocates %v times, want ≤ 4", allocs)
	}
}
