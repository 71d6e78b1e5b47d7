package sim

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"bqs/internal/store"
	"bqs/internal/systems"
)

func TestServerPersistsBeforeAck(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := NewServer(3, WithStore(st))
	if !s.HandleWrite("obj", TaggedValue{Value: "v1", TS: Timestamp{Seq: 5, Writer: 1}}) {
		t.Fatal("write refused")
	}
	rec, ok := st.Get("obj")
	if !ok || rec.Value != "v1" || rec.Seq != 5 || rec.Writer != 1 {
		t.Fatalf("store after acked write: %+v (ok=%v)", rec, ok)
	}
	// A write the store refuses must not be acknowledged: durability
	// unknown reads as unresponsiveness.
	st.Close()
	if s.HandleWrite("obj", TaggedValue{Value: "v2", TS: Timestamp{Seq: 6}}) {
		t.Fatal("write acked after its store closed")
	}
	if s.SnapshotKey("obj").Value != "v1" {
		t.Fatal("unacked write became visible")
	}
}

func TestServerRestartSemantics(t *testing.T) {
	tv := TaggedValue{Value: "survivor", TS: Timestamp{Seq: 9, Writer: 2}}

	t.Run("durable", func(t *testing.T) {
		st, err := store.Open(t.TempDir(), store.WithFsync(false))
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		s := NewServer(0, WithStore(st))
		s.HandleWrite("obj", tv)
		s.SetBehavior(Crashed)
		s.SetBehavior(Restart)
		if got := s.Behavior(); got != Correct {
			t.Fatalf("behavior after restart: %v", got)
		}
		if got := s.SnapshotKey("obj"); got != tv {
			t.Fatalf("durable server lost state across restart: %+v", got)
		}
		got, ok := s.HandleRead(1, "obj")
		if !ok || got != tv {
			t.Fatalf("read after restart: %+v (ok=%v)", got, ok)
		}
	})

	t.Run("memory-only", func(t *testing.T) {
		s := NewServer(0)
		s.HandleWrite("obj", tv)
		s.SetBehavior(Restart)
		if got := s.SnapshotKey("obj"); got.Value != "" {
			t.Fatalf("restart without a store kept state: %+v", got)
		}
		if got := s.Behavior(); got != Correct {
			t.Fatalf("behavior after restart: %v", got)
		}
	})

	t.Run("mem store", func(t *testing.T) {
		s := NewServer(0, WithStore(store.NewMem()))
		s.HandleWrite("obj", tv)
		s.SetBehavior(Restart)
		if got := s.SnapshotKey("obj"); got.Value != "" {
			t.Fatalf("Mem engine survived its crash boundary: %+v", got)
		}
	})
}

// TestServerStartupRecovery pins the bqs-server startup path: a fresh
// Server handed a store opened on an existing data dir serves the
// recovered state.
func TestServerStartupRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	old := NewServer(0, WithStore(st))
	old.HandleWrite("obj", TaggedValue{Value: "persisted", TS: Timestamp{Seq: 3, Writer: 1}})
	st.Close() // abandon without snapshotting: recovery replays the WAL

	st2, err := store.Open(dir, store.WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s := NewServer(0, WithStore(st2))
	got, ok := s.HandleRead(1, "obj")
	if !ok || got.Value != "persisted" || got.TS.Seq != 3 {
		t.Fatalf("fresh server on recovered store read %+v (ok=%v)", got, ok)
	}
}

// TestClusterRestartChurnDurable runs the full protocol across restarts:
// with durable stores, killing and recovering every server must preserve
// written values end to end; with amnesiac restarts the registers drain
// but safety (the protocol's re-vouching) still holds.
func TestClusterRestartChurnDurable(t *testing.T) {
	sys, err := systems.NewMaskingThreshold(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c, err := NewCluster(sys, 2, WithSeed(11), WithStores(func(id int) (store.Store, error) {
		return store.Open(filepath.Join(dir, fmt.Sprintf("server-%04d", id)), store.WithFsync(false))
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	w := c.NewClient(1)
	if err := w.WriteKey(ctx, "obj", "before-restart"); err != nil {
		t.Fatal(err)
	}
	// Kill-and-recover every server, one at a time (never more than one
	// down, so the quorum system stays available throughout).
	for i := range c.N() {
		if err := c.InjectFault(Restart, i); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.NewClient(2).ReadKey(ctx, "obj")
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != "before-restart" {
		t.Fatalf("read %q after full rolling restart, want before-restart", got.Value)
	}
}

// TestInMemoryWritesPersistBeforeAck runs write phases over fsynced Disk
// stores, one of them closed: the phase stages every member's write and
// then waits on the commits, so a write is acked only once it is durable,
// and the closed replica, whose Stage fails, answers OK: false and is
// suspected. After every live Disk goes through its crash-recovery
// boundary, every acked write is still held by a whole quorum and reads
// back. It runs once without a latency model and once with one.
func TestInMemoryWritesPersistBeforeAck(t *testing.T) {
	const dead = 4
	sys, err := systems.NewMaskingThreshold(13, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, latency := range []bool{false, true} {
		t.Run(fmt.Sprintf("latency=%v", latency), func(t *testing.T) {
			dir := t.TempDir()
			opts := []Option{WithSeed(17), WithStores(func(id int) (store.Store, error) {
				return store.Open(filepath.Join(dir, fmt.Sprintf("server-%04d", id)))
			})}
			if latency {
				opts = append(opts, WithLatency(20*time.Microsecond, 40*time.Microsecond))
			}
			c, err := NewCluster(sys, 3, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Server(dead).store.Close(); err != nil {
				t.Fatal(err)
			}
			cl := c.NewClient(1)
			suspected := func() bool {
				cl.mu.Lock()
				defer cl.mu.Unlock()
				return cl.suspected.contains(dead)
			}
			var acked []string
			for i := 0; len(acked) < 4 || !suspected(); i++ {
				if i == 24 {
					t.Fatalf("replica %d with a closed store not suspected after %d writes", dead, i)
				}
				key := fmt.Sprintf("key-%d", i)
				if err := cl.WriteKey(ctx, key, "v-"+key); err != nil {
					t.Fatalf("write %s: %v", key, err)
				}
				acked = append(acked, key)
			}
			for i := range c.N() {
				if i == dead {
					continue
				}
				if err := c.Server(i).store.Reopen(); err != nil {
					t.Fatalf("reopen server %d: %v", i, err)
				}
			}
			// Each acked write was acked by a whole quorum of live
			// replicas, so at least that many hold it after recovery.
			reader := c.NewClient(2)
			for _, key := range acked {
				held := 0
				for i := range c.N() {
					if i != dead && c.Server(i).SnapshotKey(key).Value == "v-"+key {
						held++
					}
				}
				if held < sys.MinQuorumSize() {
					t.Errorf("acked write %s survives recovery at %d replicas, want ≥ a quorum of %d", key, held, sys.MinQuorumSize())
				}
				if got, err := reader.ReadKey(ctx, key); err != nil || got.Value != "v-"+key {
					t.Errorf("acked write %s read back as %+v after recovery (err %v)", key, got, err)
				}
			}
		})
	}
}

func TestParseBehaviorRestart(t *testing.T) {
	b, err := ParseBehavior("restart")
	if err != nil || b != Restart {
		t.Fatalf("ParseBehavior(restart) = %v, %v", b, err)
	}
	if !KnownBehavior(Restart) {
		t.Fatal("Restart not a known behavior")
	}
	if Restart.String() != "restart" {
		t.Fatalf("Restart.String() = %q", Restart.String())
	}
	if Restart.IsByzantine() {
		t.Fatal("Restart classified Byzantine")
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

// TestStoppedStoreAnswersNoRead: over the in-memory transport, a replica
// whose store stopped its log answers every probe OK: false, as a crashed
// one does — its memory may hold a write that was nacked and that
// recovery drops — until a Restart recovers the store.
func TestStoppedStoreAnswersNoRead(t *testing.T) {
	st := &stoppableStore{Mem: store.NewMem()}
	s := NewServer(0, WithStore(st))
	tr := newMemTransport([]*Server{s}, 1, 0, 0, 0)
	ctx := context.Background()
	write := Request{Op: OpWrite, Key: "k", Value: TaggedValue{Value: "v", TS: Timestamp{Seq: 1, Writer: 1}}}
	read := Request{Op: OpRead, Key: "k"}
	if resp, err := tr.Invoke(ctx, 0, write); err != nil || !resp.OK {
		t.Fatalf("write before the stop = %+v, %v", resp, err)
	}
	st.stop.Store(true)
	for _, req := range []Request{read, {Op: OpReadTimestamps, Key: "k"}, write} {
		if resp, err := tr.Invoke(ctx, 0, req); err != nil || resp.OK {
			t.Errorf("%v over a stopped store = %+v, %v, want OK: false", req.Op, resp, err)
		}
	}
	s.SetBehavior(Restart)
	if resp, err := tr.Invoke(ctx, 0, read); err != nil || !resp.OK {
		t.Fatalf("read after Restart = %+v, %v, want it served", resp, err)
	}
}

// TestMergeStateSkipsStoppedStore: a handoff reads no state from a
// replica whose store stopped its log — its memory may hold a nacked write
// that recovery drops — and reads it again once the store is recovered.
func TestMergeStateSkipsStoppedStore(t *testing.T) {
	st := &stoppableStore{Mem: store.NewMem()}
	src := NewServer(0, WithStore(st))
	tv := TaggedValue{Value: "v", TS: Timestamp{Seq: 1, Writer: 1}}
	if !src.HandleWrite("k", tv) {
		t.Fatal("write before the stop refused")
	}
	st.stop.Store(true)
	dst := NewServer(1)
	if n := MergeState([]*Server{src}, []*Server{dst}); n != 0 || dst.SnapshotKey("k") != (TaggedValue{}) {
		t.Fatalf("merge from a stopped store moved %d keys, k = %+v; want none", n, dst.SnapshotKey("k"))
	}
	st.stop.Store(false)
	if n := MergeState([]*Server{src}, []*Server{dst}); n != 1 || dst.SnapshotKey("k") != tv {
		t.Fatalf("merge after recovery moved %d keys, k = %+v; want 1, %+v", n, dst.SnapshotKey("k"), tv)
	}
}
