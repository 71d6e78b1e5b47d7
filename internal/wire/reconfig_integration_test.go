package wire

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"bqs/internal/obs"
	"bqs/internal/reconfig"
	"bqs/internal/sim"
	"bqs/internal/systems"
)

// epoch returns the configuration epoch the client gates its requests at:
// 0 until it adopts a record through InstallEpoch, and always 0 for
// epoch-unaware clients.
func (c *Client) epoch() uint64 {
	if c.cfg.epoch == nil {
		return 0
	}
	return c.cfg.epoch.Load()
}

// TestWireStaleEpochRefresh pins the epoch gate end to end at the
// transport level: a client pinned to a stale epoch has its requests
// answered with wrongepoch — which reads as the retriable
// Response{OK: false}, never an abort — hears the shard's current
// record through its onStale callback, refreshes via FetchConfig +
// InstallEpoch, and completes.
func TestWireStaleEpochRefresh(t *testing.T) {
	regB := obs.NewRegistry()
	reps := newReplicas([]int{0, 1})
	addr, srv := startShard(t, reps)

	routes := map[int]string{0: addr, 1: addr}
	trA, err := Dial(routes, WithEpochs(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer trA.Close()
	stale := make(chan reconfig.Record, 16)
	trB, err := Dial(routes, WithEpochs(func(rec reconfig.Record) {
		select {
		case stale <- rec:
		default:
		}
	}), WithMetrics(regB))
	if err != nil {
		t.Fatal(err)
	}
	defer trB.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Before any install both clients announce epoch 0, matching the
	// shard's boot state: everything is served.
	for _, tr := range []*Client{trA, trB} {
		resp, err := tr.Invoke(ctx, 0, sim.Request{Op: sim.OpWrite, Value: sim.TaggedValue{Value: "v0", TS: sim.Timestamp{Seq: 1}}})
		if err != nil || !resp.OK {
			t.Fatalf("epoch-0 write: resp=%+v err=%v", resp, err)
		}
	}
	if _, found, err := trB.FetchConfig(ctx); err != nil || found {
		t.Fatalf("FetchConfig before any install: found=%v err=%v, want none", found, err)
	}

	// Client A moves the shard to epoch 1. A keeps being served; B is now
	// pinned to the retired epoch 0.
	rec := reconfig.Record{Epoch: 1, Kind: "mgrid", Universe: 36, B: 1}
	if err := trA.InstallEpoch(ctx, rec); err != nil {
		t.Fatalf("InstallEpoch: %v", err)
	}
	if got := trA.epoch(); got != 1 {
		t.Fatalf("installer epoch = %d, want 1", got)
	}
	if got, ok := srv.CurrentRecord(); !ok || got != rec {
		t.Fatalf("shard record = %+v ok=%v, want %+v", got, ok, rec)
	}
	resp, err := trA.Invoke(ctx, 0, sim.Request{Op: sim.OpRead, ReaderID: 1})
	if err != nil || !resp.OK {
		t.Fatalf("installer read at epoch 1: resp=%+v err=%v", resp, err)
	}

	// The stale client's request is rejected as retriable suspicion, and
	// the shard's record arrives on the callback.
	resp, err = trB.Invoke(ctx, 0, sim.Request{Op: sim.OpRead, ReaderID: 2})
	if err != nil || resp.OK {
		t.Fatalf("stale-epoch read: resp=%+v err=%v, want OK:false and nil error", resp, err)
	}
	select {
	case got := <-stale:
		if got != rec {
			t.Fatalf("onStale record = %+v, want %+v", got, rec)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("onStale never fired for the stale-epoch rejection")
	}
	if v, _ := regB.Value("bqs_wire_wrong_epoch_total", "side", "client"); v < 1 {
		t.Fatalf("client wrong-epoch counter = %v, want >= 1", v)
	}

	// Refresh: fetch the current record, adopt it (the install is
	// idempotent at the shard), and complete the operation.
	cur, found, err := trB.FetchConfig(ctx)
	if err != nil || !found || cur != rec {
		t.Fatalf("FetchConfig: rec=%+v found=%v err=%v, want %+v", cur, found, err, rec)
	}
	if err := trB.InstallEpoch(ctx, cur); err != nil {
		t.Fatalf("refresh InstallEpoch: %v", err)
	}
	if got := trB.epoch(); got != 1 {
		t.Fatalf("refreshed epoch = %d, want 1", got)
	}
	resp, err = trB.Invoke(ctx, 0, sim.Request{Op: sim.OpRead, ReaderID: 2})
	if err != nil || !resp.OK {
		t.Fatalf("read after refresh: resp=%+v err=%v", resp, err)
	}
	if resp.Value.Value != "v0" {
		t.Fatalf("read after refresh returned %q, want %q", resp.Value.Value, "v0")
	}
}

// TestWireUnannouncedConnsUngated pins v1 compatibility: a client that
// never announces an epoch (no WithEpochs) is served across installs,
// exactly like a v1 peer — the epoch plane is opt-in.
func TestWireUnannouncedConnsUngated(t *testing.T) {
	addr, srv := startShard(t, newReplicas([]int{0}))
	tr, err := Dial(map[int]string{0: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if resp, err := tr.Invoke(ctx, 0, sim.Request{Op: sim.OpRead}); err != nil || !resp.OK {
		t.Fatalf("read before install: resp=%+v err=%v", resp, err)
	}
	if got := srv.install(reconfig.Record{Epoch: 5, Kind: "threshold", Universe: 5, B: 1}); got.Epoch != 5 {
		t.Fatalf("install returned epoch %d, want 5", got.Epoch)
	}
	if resp, err := tr.Invoke(ctx, 0, sim.Request{Op: sim.OpRead}); err != nil || !resp.OK {
		t.Fatalf("un-announced read after install: resp=%+v err=%v, want served ungated", resp, err)
	}
	if tr.epoch() != 0 {
		t.Fatalf("epoch-unaware client reports epoch %d, want 0", tr.epoch())
	}
	if err := tr.InstallEpoch(ctx, reconfig.Record{Epoch: 6, Kind: "threshold", Universe: 5, B: 1}); err == nil {
		t.Fatal("InstallEpoch on an epoch-unaware client must error")
	}
}

// TestWireInstallIdempotentAndMerge pins the shard-side install
// semantics: adopting a newer record merges the newest stored value of
// every key into the replicas that remain in the new universe, while
// stale and repeated installs ack without changing state.
func TestWireInstallIdempotentAndMerge(t *testing.T) {
	reps := newReplicas([]int{0, 1, 2, 5})
	srv := NewServer(reps)

	// Replica 5 (about to leave the universe) holds the newest value;
	// replica 0 an older one; 1 and 2 nothing.
	reps[5].HandleWrite("k", sim.TaggedValue{Value: "new", TS: sim.Timestamp{Seq: 9, Writer: 1}})
	reps[0].HandleWrite("k", sim.TaggedValue{Value: "old", TS: sim.Timestamp{Seq: 1, Writer: 1}})

	rec := reconfig.Record{Epoch: 1, Kind: "threshold", Universe: 5, B: 1}
	if got := srv.install(rec); got != rec {
		t.Fatalf("install returned %+v, want %+v", got, rec)
	}
	for _, id := range []int{0, 1, 2} {
		if tv := reps[id].SnapshotKey("k"); tv.Value != "new" || tv.TS.Seq != 9 {
			t.Fatalf("replica %d after merge holds %+v, want the newest value", id, tv)
		}
	}

	// Same epoch again, and an older epoch: both ack with the current
	// record, no state change.
	if got := srv.install(rec); got != rec {
		t.Fatalf("re-install returned %+v, want %+v", got, rec)
	}
	older := reconfig.Record{Epoch: 0, Kind: "mgrid", Universe: 36, B: 1}
	if got := srv.install(older); got != rec {
		t.Fatalf("stale install returned %+v, want current %+v", got, rec)
	}
	if got, ok := srv.CurrentRecord(); !ok || got != rec {
		t.Fatalf("CurrentRecord = %+v ok=%v, want %+v", got, ok, rec)
	}
}

// TestWireRollingResize is the end-to-end acceptance path over sockets:
// a cluster running MGrid(5,1) across two TCP shards resizes to
// MGrid(6,1) via Cluster.Reconfigure while an epoch-aware transport
// carries its traffic. The wire client is the reconfig.Installer, so
// the cutover pushes the record to both shard daemons (each merges its
// own replica state — HandoffKeys stays 0 on the coordinator) and the
// pre-resize value must be readable in the new epoch.
func TestWireRollingResize(t *testing.T) {
	sys, err := systems.NewMGrid(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	const b, maxUniverse = 1, 36

	// Two shard daemons provisioned for the post-resize universe: the
	// resize target must already be addressable, exactly as a real
	// deployment racks servers before cutting traffic over.
	shards := [][]int{{}, {}}
	for id := 0; id < maxUniverse; id++ {
		shards[id/18] = append(shards[id/18], id)
	}
	routes := make(map[int]string)
	srvs := make([]*Server, 0, len(shards))
	for _, ids := range shards {
		reps := newReplicas(ids)
		addr, srv := startShard(t, reps)
		srvs = append(srvs, srv)
		for id := range reps {
			routes[id] = addr
		}
	}
	if err := CheckCoverage(routes, maxUniverse); err != nil {
		t.Fatal(err)
	}

	tr, err := Dial(routes, WithEpochs(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cluster, err := sim.NewCluster(sys, b,
		sim.WithTransport(func([]*sim.Server) sim.Transport { return tr }))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cl := cluster.NewClient(1)
	if err := cl.WriteKey(ctx, "cfg", "before-resize"); err != nil {
		t.Fatalf("write before resize: %v", err)
	}

	rec, err := reconfig.ParseTarget("mgrid:36", b)
	if err != nil {
		t.Fatal(err)
	}
	report, err := cluster.Reconfigure(ctx, rec)
	if err != nil {
		t.Fatalf("Reconfigure over wire: %v", err)
	}
	if report.HandoffKeys != 0 {
		t.Fatalf("coordinator handed off %d keys; shard daemons own the merge over a wire transport", report.HandoffKeys)
	}
	if cluster.Epoch() != 1 || tr.epoch() != 1 {
		t.Fatalf("epochs after resize: cluster=%d transport=%d, want 1", cluster.Epoch(), tr.epoch())
	}
	for i, srv := range srvs {
		got, ok := srv.CurrentRecord()
		if !ok || got.Epoch != 1 || got.Universe != maxUniverse {
			t.Fatalf("shard %d record = %+v ok=%v, want epoch 1 universe %d", i, got, ok, maxUniverse)
		}
	}

	// The new epoch serves reads spanning the grown universe, including
	// the pre-resize state the shards merged locally at install.
	tv, err := cl.ReadKey(ctx, "cfg")
	if err != nil {
		t.Fatalf("read after resize: %v", err)
	}
	if tv.Value != "before-resize" {
		t.Fatalf("read after resize returned %q, want %q", tv.Value, "before-resize")
	}
	if err := cl.WriteKey(ctx, "cfg", "after-resize"); err != nil {
		t.Fatalf("write after resize: %v", err)
	}
	tv, err = cluster.NewClient(2).ReadKey(ctx, "cfg")
	if err != nil || tv.Value != "after-resize" {
		t.Fatalf("final read: tv=%+v err=%v, want after-resize", tv, err)
	}
	if cluster.N() != maxUniverse {
		t.Fatalf("post-resize universe %d, want %d (%s)", cluster.N(), maxUniverse, cluster.System().Name())
	}
}

// TestWireResizeUnderLoad runs concurrent keyed traffic through the
// rolling resize and requires every operation to complete — wrongepoch
// rejections surface only as quorum re-selection, never as client
// errors — and the written history to stay safe.
func TestWireResizeUnderLoad(t *testing.T) {
	const b, maxUniverse = 1, 36
	sys, err := systems.NewMGrid(5, b)
	if err != nil {
		t.Fatal(err)
	}
	shards := [][]int{{}, {}}
	for id := 0; id < maxUniverse; id++ {
		shards[id/18] = append(shards[id/18], id)
	}
	routes := make(map[int]string)
	for _, ids := range shards {
		reps := newReplicas(ids)
		addr, _ := startShard(t, reps)
		for id := range reps {
			routes[id] = addr
		}
	}
	tr, err := Dial(routes, WithEpochs(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cluster, err := sim.NewCluster(sys, b,
		sim.WithTransport(func([]*sim.Server) sim.Transport { return tr }))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const writers, ops = 3, 30
	errs := make(chan error, writers)
	resized := make(chan struct{})
	for w := 0; w < writers; w++ {
		go func(w int) {
			cl := cluster.NewClient(w)
			for i := 0; i < ops; i++ {
				if i == ops/3 && w == 0 {
					// Writer 0 paces the resize to land mid-traffic.
					close(resized)
				}
				if err := cl.WriteKey(ctx, fmt.Sprintf("key-%d", w), fmt.Sprintf("w%d-%d", w, i)); err != nil {
					errs <- fmt.Errorf("writer %d op %d: %w", w, i, err)
					return
				}
				if _, err := cl.ReadKey(ctx, fmt.Sprintf("key-%d", w)); err != nil {
					errs <- fmt.Errorf("reader %d op %d: %w", w, i, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	<-resized
	rec, err := reconfig.ParseTarget("mgrid:36", b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Reconfigure(ctx, rec); err != nil {
		t.Fatalf("Reconfigure under load: %v", err)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if cluster.Epoch() != 1 {
		t.Fatalf("epoch after resize = %d, want 1", cluster.Epoch())
	}
	// Every writer's last value must be intact in the new epoch.
	for w := 0; w < writers; w++ {
		tv, err := cluster.NewClient(99).ReadKey(ctx, fmt.Sprintf("key-%d", w))
		if err != nil {
			t.Fatalf("final read key-%d: %v", w, err)
		}
		if want := fmt.Sprintf("w%d-%d", w, ops-1); tv.Value != want {
			t.Fatalf("key-%d = %q, want %q", w, tv.Value, want)
		}
	}
}

// TestWireAnnounceOrderingUnderRace runs the epoch-bump race 200 times:
// after each adoption the connection's announced epoch is stale, and two
// senders race to be the first request behind the bump. Whoever wins must
// put the announce ahead of BOTH requests — encoding the preface and the
// request into the connection's buffer is one critical section, and a
// coalesced flush preserves buffer order — or the loser would be gated at
// the retired epoch and answered wrongepoch.
func TestWireAnnounceOrderingUnderRace(t *testing.T) {
	regS := obs.NewRegistry()
	addr, _ := startShard(t, newReplicas([]int{0}), WithServerMetrics(regS))
	tr, err := Dial(map[int]string{0: addr}, WithEpochs(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for epoch := uint64(1); epoch <= 200; epoch++ {
		if err := tr.InstallEpoch(ctx, reconfig.Record{Epoch: epoch, Kind: "threshold", Universe: 5, B: 1}); err != nil {
			t.Fatalf("InstallEpoch(%d): %v", epoch, err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := tr.Invoke(ctx, 0, sim.Request{Op: sim.OpRead, ReaderID: g})
				if err != nil || !resp.OK {
					t.Errorf("epoch %d sender %d: resp=%+v err=%v, want served at the new epoch", epoch, g, resp, err)
				}
			}()
		}
		wg.Wait()
	}
	if v, _ := regS.Value("bqs_wire_wrong_epoch_total", "side", "server"); v != 0 {
		t.Fatalf("server rejected %v requests as wrong-epoch; a request overtook its announce", v)
	}
}
