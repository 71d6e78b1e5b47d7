package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bqs/internal/obs"
)

// engines lists the Store implementations under their interface, so the
// semantic tests run identically against both.
func engines(t *testing.T) map[string]Store {
	t.Helper()
	disk, err := Open(t.TempDir(), WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"mem": NewMem(), "disk": disk}
}

func TestStoreSemantics(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			if _, ok := s.Get("x"); ok {
				t.Fatal("empty store has a record")
			}
			mustApply(t, s, Record{Key: "x", Value: "old", Seq: 1, Writer: 0})
			mustApply(t, s, Record{Key: "x", Value: "new", Seq: 2, Writer: 0})
			// Stale and tied timestamps must lose: replay order-insensitivity.
			mustApply(t, s, Record{Key: "x", Value: "stale", Seq: 1, Writer: 9})
			mustApply(t, s, Record{Key: "x", Value: "tied", Seq: 2, Writer: 0})
			if rec, _ := s.Get("x"); rec.Value != "new" {
				t.Fatalf("got %q, want last-writer-wins %q", rec.Value, "new")
			}
			// Same Seq, higher Writer wins (lexicographic timestamp order).
			mustApply(t, s, Record{Key: "x", Value: "peer", Seq: 2, Writer: 1})
			if rec, _ := s.Get("x"); rec.Value != "peer" {
				t.Fatalf("got %q, want writer-tiebreak %q", rec.Value, "peer")
			}
			mustApply(t, s, Record{Key: "y", Value: "other", Seq: 1, Writer: 0})
			var keys []string
			s.Range(func(rec Record) bool { keys = append(keys, rec.Key); return true })
			if len(keys) != 2 {
				t.Fatalf("Range saw %v, want 2 keys", keys)
			}
		})
	}
}

func TestStoreClose(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := s.Apply(Record{Key: "x"}); err != ErrClosed {
				t.Fatalf("Apply on closed store: %v, want ErrClosed", err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		})
	}
}

// TestMemReopenWipes pins the amnesiac-restart semantics the churn engine
// had before this package: Mem's crash-recovery boundary loses everything.
func TestMemReopenWipes(t *testing.T) {
	s := NewMem()
	mustApply(t, s, Record{Key: "x", Value: "v", Seq: 1})
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("x"); ok {
		t.Fatal("Mem survived Reopen; a process restart must lose memory")
	}
}

func TestDiskReopenRecovers(t *testing.T) {
	d, err := Open(t.TempDir(), WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := range 100 {
		mustApply(t, d, Record{Key: fmt.Sprintf("k%02d", i%10), Value: fmt.Sprintf("v%d", i), Seq: int64(i), Writer: int64(i % 3)})
	}
	want := dump(d)
	if err := d.Reopen(); err != nil {
		t.Fatal(err)
	}
	if got := dump(d); got != want {
		t.Fatalf("state after Reopen:\n%s\nwant:\n%s", got, want)
	}
	st := d.Recovered()
	if st.Keys != 10 || st.WALRecords != 100 || st.TruncatedBytes != 0 {
		t.Fatalf("recovery stats %+v, want 10 keys from 100 wal records, nothing truncated", st)
	}
	// And recovery in a brand-new process (fresh Open on the same dir).
	d2, err := Open(d.dir, WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := dump(d2); got != want {
		t.Fatalf("state after fresh Open:\n%s\nwant:\n%s", got, want)
	}
}

// TestDiskRecoveryEdges covers the crash shapes from the issue: truncated
// final WAL record, corrupt CRC mid-log, snapshot newer than the log
// tail, and an empty data dir. Each must recover the consistent prefix
// without panicking.
func TestDiskRecoveryEdges(t *testing.T) {
	seed := func(t *testing.T, n int) (string, *Disk) {
		t.Helper()
		dir := t.TempDir()
		d, err := Open(dir, WithFsync(false))
		if err != nil {
			t.Fatal(err)
		}
		for i := range n {
			mustApply(t, d, Record{Key: fmt.Sprintf("k%d", i), Value: "v", Seq: int64(i + 1)})
		}
		return dir, d
	}

	t.Run("empty data dir", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "does", "not", "exist")
		d, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if st := d.Recovered(); st.Keys != 0 || st.TruncatedBytes != 0 {
			t.Fatalf("recovery from nothing: %+v", st)
		}
		mustApply(t, d, Record{Key: "x", Value: "v", Seq: 1})
	})

	t.Run("truncated final record", func(t *testing.T) {
		dir, d := seed(t, 5)
		d.Close()
		wal := filepath.Join(dir, walName)
		buf, err := os.ReadFile(wal)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wal, buf[:len(buf)-3], 0o644); err != nil {
			t.Fatal(err)
		}
		d2, err := Open(dir, WithFsync(false))
		if err != nil {
			t.Fatal(err)
		}
		defer d2.Close()
		st := d2.Recovered()
		if st.WALRecords != 4 || st.Keys != 4 || st.TruncatedBytes == 0 {
			t.Fatalf("recovery %+v, want 4 intact records and a truncated tail", st)
		}
		if _, ok := d2.Get("k4"); ok {
			t.Fatal("torn final record resurrected")
		}
		// The tail was physically truncated: appends go to a clean boundary.
		mustApply(t, d2, Record{Key: "k4", Value: "rewritten", Seq: 9})
		if err := d2.Reopen(); err != nil {
			t.Fatal(err)
		}
		if rec, _ := d2.Get("k4"); rec.Value != "rewritten" {
			t.Fatalf("append after truncation lost: %+v", rec)
		}
	})

	t.Run("corrupt crc mid-log", func(t *testing.T) {
		dir, d := seed(t, 6)
		d.Close()
		wal := filepath.Join(dir, walName)
		buf, err := os.ReadFile(wal)
		if err != nil {
			t.Fatal(err)
		}
		buf[len(buf)/2] ^= 0xff // flip a bit in some middle record
		if err := os.WriteFile(wal, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		d2, err := Open(dir, WithFsync(false))
		if err != nil {
			t.Fatal(err)
		}
		defer d2.Close()
		st := d2.Recovered()
		if st.WALRecords >= 6 || st.TruncatedBytes == 0 {
			t.Fatalf("recovery %+v, want a proper prefix with the corrupt tail truncated", st)
		}
		for i := range st.WALRecords {
			if _, ok := d2.Get(fmt.Sprintf("k%d", i)); !ok {
				t.Fatalf("record %d in the intact prefix missing", i)
			}
		}
	})

	t.Run("snapshot newer than log tail", func(t *testing.T) {
		// A crash between compaction's snapshot rename and WAL truncate:
		// the snapshot already holds newer state than the log. Rebuild
		// that moment by hand and check last-writer-wins resolves it.
		dir, d := seed(t, 3)
		mustApply(t, d, Record{Key: "k1", Value: "newest", Seq: 100})
		if err := d.snapshot(); err != nil {
			t.Fatal(err)
		}
		d.Close()
		stale, err := AppendRecord(nil, Record{Key: "k1", Value: "stale", Seq: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walName), stale, 0o644); err != nil {
			t.Fatal(err)
		}
		d2, err := Open(dir, WithFsync(false))
		if err != nil {
			t.Fatal(err)
		}
		defer d2.Close()
		if rec, _ := d2.Get("k1"); rec.Value != "newest" {
			t.Fatalf("stale log tail beat newer snapshot: %+v", rec)
		}
		if st := d2.Recovered(); st.SnapshotRecords != 3 || st.WALRecords != 1 {
			t.Fatalf("recovery %+v, want 3 snapshot records and 1 wal record", st)
		}
	})

	t.Run("corrupt snapshot fails loud", func(t *testing.T) {
		dir, d := seed(t, 3)
		if err := d.snapshot(); err != nil {
			t.Fatal(err)
		}
		d.Close()
		snap := filepath.Join(dir, snapName)
		buf, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		buf[recordHeaderLen] ^= 0xff
		if err := os.WriteFile(snap, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Fatal("Open silently dropped state from a corrupt snapshot")
		}
	})
}

// TestDiskCompaction drives the WAL past a tiny threshold and checks the
// log is truncated, the snapshot holds the state, and recovery still
// sees everything.
func TestDiskCompaction(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, WithFsync(false), snapshotAt(512))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := range 200 {
		mustApply(t, d, Record{Key: fmt.Sprintf("k%02d", i%20), Value: "vvvvvvvvvvvvvvvv", Seq: int64(i)})
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Fatalf("200 writes past a 512B threshold never compacted: %v", err)
	}
	if sz := fileSize(t, filepath.Join(dir, walName)); sz > 4096 {
		t.Fatalf("WAL is %dB after compaction; truncation not happening", sz)
	}
	want := dump(d)
	d2, err := Open(dir, WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := dump(d2); got != want {
		t.Fatalf("state after compacted recovery:\n%s\nwant:\n%s", got, want)
	}
}

// TestDiskGroupCommit runs many concurrent Applies and checks they were
// served by far fewer flush batches — the fsync amortization the durable
// throughput target depends on.
func TestDiskGroupCommit(t *testing.T) {
	d, err := Open(t.TempDir()) // real fsync: contention is the point
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const writers, each = 16, 32
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				if err := d.Apply(Record{Key: fmt.Sprintf("k%d", w), Value: "v", Seq: int64(i + 1), Writer: int64(w)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	applies := int64(writers * each)
	if f := d.Flushes(); f >= applies {
		t.Fatalf("%d applies took %d flushes; group commit is not batching", applies, f)
	} else {
		t.Logf("%d applies in %d flushes (%.1f writes/fsync)", applies, f, float64(applies)/float64(f))
	}
	if err := d.Reopen(); err != nil {
		t.Fatal(err)
	}
	for w := range writers {
		if rec, _ := d.Get(fmt.Sprintf("k%d", w)); rec.Seq != each {
			t.Fatalf("writer %d: recovered seq %d, want %d", w, rec.Seq, each)
		}
	}
}

// TestDiskCommitCutOff pins the group commit's cut-off and
// persist-before-ack: records staged in one window share one Commit and
// are visible to Get before it finishes; the flush observes one batch of
// exactly those records; and Reopen and Close end a pending commit with
// ErrClosed, after which a Reopen keeps what was committed and loses what
// was only staged. Holding the files, as a compaction does, keeps the
// flusher away, so "pending" is a state of the test, not a race.
func TestDiskCommitCutOff(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := Open(t.TempDir(), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	hold := func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		if err := d.claimFilesLocked(); err != nil {
			t.Fatal(err)
		}
	}
	release := func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.releaseFilesLocked()
	}
	stage := func(rec Record) *Commit {
		t.Helper()
		c, err := d.Stage(rec)
		if err != nil || c == nil {
			t.Fatalf("Stage(%+v) = %v, %v; want a pending commit", rec, c, err)
		}
		return c
	}
	pending := func(c *Commit) bool {
		select {
		case <-c.done:
			return false
		default:
			return true
		}
	}
	// cutOff waits for c to be cut off by Close or Reopen (the files are
	// held, so nothing else can finish it), failing rather than hanging
	// if it never is.
	cutOff := func(c *Commit, by string) {
		t.Helper()
		select {
		case <-c.done:
		case <-time.After(10 * time.Second):
			release() // let the blocked call finish
			t.Fatalf("%s left the pending commit pending", by)
		}
		if err := c.Wait(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Wait on a commit %s cut off = %v, want ErrClosed", by, err)
		}
	}

	mustApply(t, d, Record{Key: "kept", Value: "v", Seq: 1})

	hold()
	c := stage(Record{Key: "batch", Value: "v1", Seq: 1})
	for i := 2; i <= 3; i++ {
		if ci := stage(Record{Key: "batch", Value: fmt.Sprintf("v%d", i), Seq: int64(i)}); ci != c {
			t.Fatal("records staged in one window got different commits")
		}
	}
	if rec, ok := d.Get("batch"); !ok || rec.Value != "v3" {
		t.Fatalf("Get before the commit = %+v, %v; want the staged v3", rec, ok)
	}
	if !pending(c) {
		t.Fatal("the commit finished while its flush was held off")
	}
	release()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	batch := reg.Histogram("bqs_store_fsync_batch_size", obs.SizeBuckets)
	if batch.Count() != 2 || batch.Count() != d.Flushes() || batch.Sum() != 1+3 {
		t.Fatalf("batch sizes: %d observations summing to %v over %d flushes; want one per flush, 1 then 3",
			batch.Count(), batch.Sum(), d.Flushes())
	}

	// Reopen cuts the pending commit off: its record was acked to no one
	// and is gone after recovery; the committed ones survive.
	hold()
	lost := stage(Record{Key: "lost", Value: "v", Seq: 1})
	reopened := make(chan error, 1)
	go func() { reopened <- d.Reopen() }()
	cutOff(lost, "Reopen")
	release()
	if err := <-reopened; err != nil {
		t.Fatal(err)
	}
	if rec, ok := d.Get("lost"); ok {
		t.Fatalf("a staged, uncommitted record survived Reopen: %+v", rec)
	}
	for key, want := range map[string]string{"kept": "v", "batch": "v3"} {
		if rec, _ := d.Get(key); rec.Value != want {
			t.Fatalf("after Reopen %s = %q, want the committed %q", key, rec.Value, want)
		}
	}
	if batch.Count() != d.Flushes() {
		t.Fatalf("%d batch-size observations over %d flushes: a cut-off commit was counted", batch.Count(), d.Flushes())
	}

	// Close cuts the pending commit off the same way, and refuses more.
	hold()
	cut := stage(Record{Key: "cut", Value: "v", Seq: 1})
	closed := make(chan error, 1)
	go func() { closed <- d.Close() }()
	cutOff(cut, "Close")
	release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if _, err := d.Stage(Record{Key: "late", Seq: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Stage on a closed store = %v, want ErrClosed", err)
	}
}

// TestStageEngines pins store.Stage's three routes, which are the whole
// answer to "can a write wait?": a Disk stages and hands back its pending
// commit, a Mem applies at once behind a nil commit, and any other engine
// — even a wrapper around a Mem — applies on a goroutine behind a commit
// of its own.
func TestStageEngines(t *testing.T) {
	disk, err := Open(t.TempDir(), WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	wrapped := struct{ Store }{NewMem()}
	for _, tc := range []struct {
		name      string
		st        Store
		nilCommit bool
	}{{"disk", disk, false}, {"mem", NewMem(), true}, {"wrapped mem", wrapped, false}} {
		rec := Record{Key: "k", Value: tc.name, Seq: 1}
		c, err := Stage(tc.st, rec)
		if err != nil {
			t.Fatalf("%s: Stage: %v", tc.name, err)
		}
		if (c == nil) != tc.nilCommit {
			t.Errorf("%s: commit = %v, want nil: %v", tc.name, c, tc.nilCommit)
		}
		if err := c.Wait(); err != nil {
			t.Fatalf("%s: Wait: %v", tc.name, err)
		}
		if got, _ := tc.st.Get("k"); got.Value != tc.name {
			t.Errorf("%s: after Wait Get = %+v, want the staged record", tc.name, got)
		}
	}
	wrapped.Close()
	c, err := Stage(wrapped, Record{Key: "k", Seq: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); !errors.Is(err, ErrClosed) {
		t.Errorf("Wait on a closed wrapped engine = %v, want its Apply's ErrClosed", err)
	}
}

// TestDiskConcurrentSnapshot races Applies against forced Snapshots; the
// race detector referees, and recovery must still be complete.
func TestDiskConcurrentSnapshot(t *testing.T) {
	d, err := Open(t.TempDir(), WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range 200 {
			if err := d.Apply(Record{Key: fmt.Sprintf("k%d", i%7), Value: "v", Seq: int64(i + 1)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for range 20 {
			if err := d.snapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := d.Reopen(); err != nil {
		t.Fatal(err)
	}
	if rec, _ := d.Get("k1"); rec.Seq == 0 {
		t.Fatal("writes lost across concurrent snapshots")
	}
}

// BenchmarkWALRecovery measures Open time against log length — the
// numbers behind the recovery-time table in EXPERIMENTS.md.
func BenchmarkWALRecovery(b *testing.B) {
	for _, records := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			dir := b.TempDir()
			d, err := Open(dir, WithFsync(false), snapshotAt(1<<40))
			if err != nil {
				b.Fatal(err)
			}
			for i := range records {
				if err := d.Apply(Record{Key: fmt.Sprintf("k%04d", i%1024), Value: "some sixteen chars", Seq: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
			walBytes := fileSize(b, filepath.Join(dir, walName))
			d.Close()
			b.ResetTimer()
			for range b.N {
				d, err := Open(dir, WithFsync(false), snapshotAt(1<<40))
				if err != nil {
					b.Fatal(err)
				}
				d.Close()
			}
			b.ReportMetric(float64(walBytes), "walBytes")
		})
	}
}

// snapshotAt sets the WAL size in bytes that triggers a compaction.
func snapshotAt(bytes int64) DiskOption {
	return func(d *Disk) { d.snapThreshold = bytes }
}

// snapshot forces a compaction, waiting for any in-flight group commit
// first.
func (d *Disk) snapshot() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.claimFilesLocked(); err != nil {
		return err
	}
	d.compactLocked()
	d.releaseFilesLocked()
	return nil
}

func fileSize(tb testing.TB, path string) int64 {
	tb.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		tb.Fatal(err)
	}
	return fi.Size()
}

func mustApply(t *testing.T, s Store, rec Record) {
	t.Helper()
	if err := s.Apply(rec); err != nil {
		t.Fatalf("Apply(%+v): %v", rec, err)
	}
}

func dump(s Store) string {
	out := ""
	s.Range(func(rec Record) bool {
		out += fmt.Sprintf("%s=%s@%d.%d\n", rec.Key, rec.Value, rec.Seq, rec.Writer)
		return true
	})
	return out
}
