package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bqs/internal/obs"
	"bqs/internal/sim"
	"bqs/internal/store"
	"bqs/internal/systems"
)

// TestBatchedSessionOverLoopback runs keyed Session traffic over real
// TCP: an MGrid(4,1) universe split across two shards, concurrent
// sessions writing and reading distinct keys through batched frames,
// with a Byzantine fabricator inside the masking bound. Every read must
// return the value written under its own key.
func TestBatchedSessionOverLoopback(t *testing.T) {
	sys, err := systems.NewMGrid(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	const b = 1 // 16-server universe, two shards of 8

	routes := make(map[int]string)
	replicas := make(map[int]*sim.Server)
	for _, ids := range [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {8, 9, 10, 11, 12, 13, 14, 15}} {
		reps := newReplicas(ids)
		addr, _ := startShard(t, reps)
		for id, rep := range reps {
			routes[id] = addr
			replicas[id] = rep
		}
	}
	replicas[5].SetBehavior(sim.ByzantineFabricate)

	tr, err := Dial(routes)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cluster, err := sim.NewCluster(sys, b,
		sim.WithTransport(func([]*sim.Server) sim.Transport { return tr }))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const clients, keysPer = 4, 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sess := cluster.NewClient(id).NewSession(sim.WithSessionBatch(8))
			defer sess.Close()
			writes := make([]*sim.WriteFuture, keysPer)
			for k := 0; k < keysPer; k++ {
				writes[k] = sess.WriteAsync(ctx, fmt.Sprintf("c%d/k%d", id, k), fmt.Sprintf("v%d-%d", id, k))
			}
			for k, f := range writes {
				if err := f.Wait(); err != nil {
					errs <- fmt.Errorf("client %d write k%d: %w", id, k, err)
					return
				}
			}
			reads := make([]*sim.ReadFuture, keysPer)
			for k := 0; k < keysPer; k++ {
				reads[k] = sess.ReadAsync(ctx, fmt.Sprintf("c%d/k%d", id, k))
			}
			for k, f := range reads {
				tv, err := f.Wait()
				if err != nil {
					errs <- fmt.Errorf("client %d read k%d: %w", id, k, err)
					return
				}
				if want := fmt.Sprintf("v%d-%d", id, k); tv.Value != want {
					errs <- fmt.Errorf("client %d key k%d: got %q want %q", id, k, tv.Value, want)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The keyed data really landed per key on the correct replicas.
	found := 0
	for _, rep := range replicas {
		if rep.Behavior() != sim.Correct {
			continue
		}
		if tv := rep.SnapshotKey("c0/k0"); tv.Value == "v0-0" {
			found++
		}
	}
	if found == 0 {
		t.Error("no correct replica holds key c0/k0 after the run")
	}
}

// TestWireBatchMixedServers exercises the shard fan-out directly: one
// batch frame carrying operations for several replicas of one shard,
// plus an item for a server the shard does not host and one no frame can
// carry, each of which must answer OK: false without disturbing its
// neighbors.
func TestWireBatchMixedServers(t *testing.T) {
	reps := newReplicas([]int{0, 1, 2})
	addr, _ := startShard(t, reps)
	tr, err := Dial(map[int]string{0: addr, 1: addr, 2: addr, 9: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tv := sim.TaggedValue{Value: "shared-frame", TS: sim.Timestamp{Seq: 1, Writer: 1}}
	items := []sim.BatchItem{
		{Server: 0, Req: sim.Request{Op: sim.OpWrite, Key: "a", Value: tv}},
		{Server: 1, Req: sim.Request{Op: sim.OpWrite, Key: "a", Value: tv}},
		{Server: 9, Req: sim.Request{Op: sim.OpRead, Key: "a", ReaderID: 1}}, // not hosted
		{Server: 2, Req: sim.Request{Op: sim.OpWrite, Key: "a", Value: tv}},
		{Server: 0, Req: sim.Request{Op: sim.OpWrite, Key: "b", Value: sim.TaggedValue{Value: strings.Repeat("v", MaxValueLen+1)}}}, // unsendable
	}
	resps, err := tr.InvokeBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, true, false, true, false} {
		if resps[i].OK != want {
			t.Errorf("item %d: OK=%v, want %v", i, resps[i].OK, want)
		}
	}
	for _, id := range []int{0, 1, 2} {
		if got := reps[id].SnapshotKey("a"); got != tv {
			t.Errorf("replica %d stored %+v, want %+v", id, got, tv)
		}
	}

	// An unrouted server is an abort, exactly as in Invoke.
	if _, err := tr.InvokeBatch(ctx, []sim.BatchItem{{Server: 77, Req: sim.Request{Op: sim.OpRead}}}); err == nil {
		t.Error("InvokeBatch accepted an unrouted server")
	}
}

// TestWireBatchNacksFailedCommits sends one frame to a shard of two
// store.Disk replicas, one of them closed, and a third replica whose
// store the shard cannot see through and whose every Apply fails. The
// shard stages every item, then waits on each item's commit and NACKs
// only the items whose write failed: the closed Disk's writes (refused
// when staged) and the third replica's (its commit fails after staging)
// answer OK: false; the open Disk's answer OK: true and are on disk when
// the reply arrives; and a read in the same frame answers.
func TestWireBatchNacksFailedCommits(t *testing.T) {
	reps := make(map[int]*sim.Server)
	disks := make([]*store.Disk, 2)
	for id := range disks {
		d, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		disks[id] = d
		reps[id] = sim.NewServer(id, sim.WithStore(d))
	}
	failing := store.NewMem()
	failing.Close()
	reps[2] = sim.NewServer(2, sim.WithStore(opaqueStore{failing}))
	addr, _ := startShard(t, reps)
	disks[1].Close()
	tr, err := Dial(map[int]string{0: addr, 1: addr, 2: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tv := sim.TaggedValue{Value: "durable", TS: sim.Timestamp{Seq: 1, Writer: 1}}
	write := func(server int, key string) sim.BatchItem {
		return sim.BatchItem{Server: server, Req: sim.Request{Op: sim.OpWrite, Key: key, Value: tv}}
	}
	items := []sim.BatchItem{
		write(0, "a"),
		write(1, "a"),
		write(2, "a"),
		{Server: 0, Req: sim.Request{Op: sim.OpRead, Key: "a", ReaderID: 1}},
		write(1, "b"),
		write(0, "b"),
	}
	resps, err := tr.InvokeBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, false, false, true, false, true} {
		if resps[i].OK != want {
			t.Errorf("item %d (server %d, %v): OK=%v, want %v", i, items[i].Server, items[i].Req.Op, resps[i].OK, want)
		}
	}
	if resps[3].Value != tv {
		t.Errorf("read after the frame's own write = %+v, want %+v", resps[3].Value, tv)
	}
	// Persist-before-ack: Reopen cuts off whatever was still pending, so
	// an ack sent before its commit would show here as a lost write.
	if err := disks[0].Reopen(); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b"} {
		if rec, ok := disks[0].Get(key); !ok || rec.Value != tv.Value {
			t.Errorf("acked write of %q after Reopen: %+v, %v", key, rec, ok)
		}
	}
}

// TestWireBatchFailFast is the regression test for batched frames
// failing fast as a unit: a batch to a dead shard pays ONE connection
// attempt for the whole frame — not one per operation — and while the
// redial backoff holds, further batches answer immediately off the gate.
func TestWireBatchFailFast(t *testing.T) {
	// A shard that hangs up on the first frame it reads — what a peer does
	// with a frame kind it does not know. Every op that dials individually
	// would burn its own accept, so the accept count is a direct
	// measurement of how many connection attempts the batch cost.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	var accepts atomic.Int64
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			go func() {
				ReadFrame(nc, nil)
				nc.Close()
			}()
		}
	}()

	routes := map[int]string{}
	items := make([]sim.BatchItem, 32)
	for i := range items {
		routes[i] = addr
		items[i] = sim.BatchItem{Server: i, Req: sim.Request{Op: sim.OpRead, Key: "k", ReaderID: 1}}
	}
	tr, err := Dial(routes, func(c *dialConfig) { c.redialBackoff = time.Hour })
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	resps, err := tr.InvokeBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r.OK {
			t.Fatalf("item %d answered OK from a dead shard", i)
		}
	}
	// The hang-up is the answer: the batch reads as a crashed shard at
	// once, it does not wait out ctx for a reply that will never come.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("batch to a shard that drops the connection took %v; want prompt OK: false", elapsed)
	}
	// The whole 32-op frame must have cost one connection attempt (allow
	// one extra for an unlucky teardown/redial race), not one per op.
	if got := accepts.Load(); got > 2 {
		t.Errorf("32-op batch to a dying shard cost %d connection attempts; want 1 (fail fast as a unit)", got)
	}

	// Kill the listener: the next attempt is a genuine dial failure, which
	// arms the hour-long backoff...
	lis.Close()
	if _, err := tr.InvokeBatch(ctx, items); err != nil {
		t.Fatal(err)
	}
	// ...and inside the backoff window the gate answers the whole batch at
	// once, with no network activity at all.
	start = time.Now()
	if _, err := tr.InvokeBatch(ctx, items); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("backoff-gated batch took %v; want immediate", elapsed)
	}
}

// stoppableStore is a store.Mem with a store.Disk's Err: stop makes it
// report a stopped log and refuse every write, as a Disk does after a
// failed append, until Reopen.
type stoppableStore struct {
	*store.Mem
	stop atomic.Bool
}

func (s *stoppableStore) Err() error {
	if s.stop.Load() {
		return errors.New("store: wal append failed, log stopped until Reopen")
	}
	return nil
}

func (s *stoppableStore) Apply(rec store.Record) error {
	if err := s.Err(); err != nil {
		return err
	}
	return s.Mem.Apply(rec)
}

func (s *stoppableStore) Reopen() error {
	s.stop.Store(false)
	return s.Mem.Reopen()
}

// TestWireStoppedStoreAnswersNoRead: on a wire.Server shard, a replica
// whose store stopped its log answers every probe OK: false, as a crashed
// one does, until a Restart flip recovers the store.
func TestWireStoppedStoreAnswersNoRead(t *testing.T) {
	st := &stoppableStore{Mem: store.NewMem()}
	addr, _ := startShard(t, map[int]*sim.Server{0: sim.NewServer(0, sim.WithStore(st))})
	cl, err := Dial(map[int]string{0: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	write := sim.Request{Op: sim.OpWrite, Key: "k", Value: sim.TaggedValue{Value: "v", TS: sim.Timestamp{Seq: 1, Writer: 1}}}
	read := sim.Request{Op: sim.OpRead, Key: "k"}
	if resp, err := cl.Invoke(ctx, 0, write); err != nil || !resp.OK {
		t.Fatalf("write before the stop = %+v, %v", resp, err)
	}
	st.stop.Store(true)
	for _, req := range []sim.Request{read, write} {
		if resp, err := cl.Invoke(ctx, 0, req); err != nil || resp.OK {
			t.Errorf("%v over a stopped store = %+v, %v, want OK: false", req.Op, resp, err)
		}
	}
	if err := cl.Flip(ctx, 0, sim.Restart); err != nil {
		t.Fatal(err)
	}
	if resp, err := cl.Invoke(ctx, 0, read); err != nil || !resp.OK {
		t.Fatalf("read after Restart = %+v, %v, want it served", resp, err)
	}
}

// TestInvokeBatchInterleavedShards: items that alternate between two
// shards — in no order the address grouping already has — travel one
// frame per run of items for one shard, and each response still lands at
// its own item's index.
func TestInvokeBatchInterleavedShards(t *testing.T) {
	addrA, _ := startShard(t, newReplicas([]int{0, 1}))
	addrB, _ := startShard(t, newReplicas([]int{2, 3}))
	reg := obs.NewRegistry()
	tr, err := Dial(map[int]string{0: addrA, 1: addrA, 2: addrB, 3: addrB}, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	servers := []int{0, 2, 1, 3, 0, 2}
	var writes, reads []sim.BatchItem
	for i, server := range servers {
		key := fmt.Sprintf("k%d", i)
		tv := sim.TaggedValue{Value: fmt.Sprintf("v%d@%d", i, server), TS: sim.Timestamp{Seq: 1, Writer: 1}}
		writes = append(writes, sim.BatchItem{Server: server, Req: sim.Request{Op: sim.OpWrite, Key: key, Value: tv}})
		reads = append(reads, sim.BatchItem{Server: server, Req: sim.Request{Op: sim.OpRead, Key: key}})
	}
	if resps, err := tr.InvokeBatch(ctx, writes); err != nil || len(resps) != len(writes) {
		t.Fatalf("writes: resps=%+v err=%v", resps, err)
	}
	resps, err := tr.InvokeBatch(ctx, reads)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if want := writes[i].Req.Value; !r.OK || r.Value != want {
			t.Errorf("item %d (server %d) = %+v, want %+v", i, servers[i], r, want)
		}
	}
	runs := 0
	for i, server := range servers {
		if i == 0 || tr.GroupOf(server) != tr.GroupOf(servers[i-1]) {
			runs++
		}
	}
	if v, _ := reg.Value("bqs_wire_frames_total", "side", "client", "dir", "out"); v != float64(2*runs) {
		t.Errorf("client frames out = %v, want one per run per batch (%d)", v, 2*runs)
	}
}
