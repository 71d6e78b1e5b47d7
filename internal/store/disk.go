package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bqs/internal/obs"
)

// File names inside a Disk store's directory. The snapshot is only ever
// replaced atomically (written to the .tmp name, fsynced, renamed), so a
// crash at any instant leaves either the old snapshot or the new one,
// never a torn mix.
const (
	walName     = "wal.log"
	snapName    = "snapshot"
	snapTmpName = "snapshot.tmp"
)

// DefaultSnapshotThreshold is the WAL size at which the Disk engine
// compacts: the state is snapshotted and the log truncated, bounding
// both disk use and recovery replay time.
const DefaultSnapshotThreshold = 4 << 20

// DiskOption configures Open.
type DiskOption func(*Disk)

// WithFsync controls whether group commits fsync the WAL before acking
// (default true). Disabling it trades crash durability (data survives a
// process kill via the OS page cache, but not a machine crash) for write
// latency — the standard production knob, exposed as bqs-server -fsync.
func WithFsync(on bool) DiskOption {
	return func(d *Disk) { d.fsync = on }
}

// WithMetrics wires the engine into an obs.Registry: WAL appends,
// group-commit flushes and their batch sizes (records per fsync), bytes
// written, snapshot compactions, recovery replay time, and commits failed
// by a stopped log, each stop also logged as an event naming the store's
// directory and the error. Instruments are get-or-create by name, so
// several stores in one process (one per replica) share the same series —
// the numbers are per process, like a real database's. A nil registry is
// a no-op.
func WithMetrics(reg *obs.Registry) DiskOption {
	return func(d *Disk) {
		if reg == nil {
			return
		}
		d.mAppends = reg.Counter("bqs_store_wal_appends_total")
		d.mFsyncs = reg.Counter("bqs_store_fsyncs_total")
		d.mWALBytes = reg.Counter("bqs_store_wal_bytes_total")
		d.mBatch = reg.Histogram("bqs_store_fsync_batch_size", obs.SizeBuckets)
		d.mSnapshots = reg.Counter("bqs_store_snapshots_total")
		d.mRecovery = reg.Histogram("bqs_store_recovery_seconds", obs.DurationBuckets)
		d.mCommitFails = reg.Counter("bqs_store_commit_failures_total")
		d.reg = reg
	}
}

// RecoveryStats describes what Open (or Reopen) reconstructed: how much
// state came from the snapshot, how much from replaying the WAL tail,
// how many torn or corrupt trailing bytes were truncated away, and how
// long the whole recovery took — the numbers behind the recovery-time
// vs log-length measurements in EXPERIMENTS.md.
type RecoveryStats struct {
	SnapshotRecords int
	WALRecords      int
	WALBytes        int64
	TruncatedBytes  int64
	Keys            int
	Elapsed         time.Duration
}

// String renders the stats in the one-line form bqs-server logs at
// startup.
func (rs RecoveryStats) String() string {
	return fmt.Sprintf("%d keys (%d snapshot + %d wal records, %dB wal, %dB torn) in %v",
		rs.Keys, rs.SnapshotRecords, rs.WALRecords, rs.WALBytes, rs.TruncatedBytes, rs.Elapsed)
}

// Disk is the durable engine: current state in memory, every applied
// write appended to a CRC-checksummed WAL before it is acknowledged,
// fsyncs batched by group commit, and a periodic snapshot + log
// truncation keeping recovery replay bounded. All file writes happen on a
// single flusher goroutine, so the WAL is strictly append-ordered.
//
// Group commit flushes by the rule a wire connection flushes by
// (wire/flush.go): the flusher yields the processor once — so every
// goroutine ready to Stage gets its record in behind — and then writes
// and fsyncs whatever is staged; whatever is staged during that
// write+fsync forms the next commit. A timer would tax the lone write
// with its period (a 500 µs sleep costs ≈ 1.1 ms, ≈ 20× a lone fsync),
// and with no yield at all writers that stage from goroutines of their
// own (store.Stage's fallback) measured about one record per fsync.
//
// A write or fsync error stops the log until Reopen: every later Stage
// fails with an error wrapping the cause, Err reports it, and nothing is
// appended or compacted. Going on is unsound — recovery would cut later
// records away with the torn bytes, and a failed fsync may have dropped
// dirty pages.
type Disk struct {
	dir           string
	fsync         bool
	snapThreshold int64
	yield         func() // runtime.Gosched, the flush rule's one yield; tests substitute their own

	mu       sync.Mutex
	cond     *sync.Cond // signalled when the flusher goes idle
	mem      table      // the register map; see table
	wal      *os.File
	walSize  int64
	pending  []byte  // encoded records awaiting write+fsync
	spare    []byte  // the last batch written, emptied: pending's next buffer
	commit   *Commit // the group commit that will carry pending; nil while none is
	staged   int     // records in pending
	flushing bool    // a flusher goroutine owns the files
	closed   bool
	// failed is why the log stopped: nil until a write or fsync fails, and
	// again after Reopen. Written under mu; Err reads it without.
	failed atomic.Pointer[error]

	recovered RecoveryStats
	flushes   int64

	// Telemetry instruments from WithMetrics; nil (no-op) by default.
	mAppends   *obs.Counter
	mFsyncs    *obs.Counter
	mWALBytes  *obs.Counter
	mBatch     *obs.Histogram
	mSnapshots *obs.Counter
	mRecovery  *obs.Histogram

	mCommitFails *obs.Counter
	reg          *obs.Registry // for the event a stopped log logs
}

// Open opens (or creates) a durable store in dir, running recovery:
// load the snapshot if one exists, replay the WAL tail over it with
// last-writer-wins merge, and truncate any torn or corrupt suffix left
// by a crash mid-append. The directory must be private to this store.
func Open(dir string, opts ...DiskOption) (*Disk, error) {
	d := &Disk{dir: dir, fsync: true, snapThreshold: DefaultSnapshotThreshold, yield: runtime.Gosched}
	d.cond = sync.NewCond(&d.mu)
	for _, opt := range opts {
		opt(d)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := d.recover(); err != nil {
		return nil, err
	}
	return d, nil
}

// recover rebuilds mem from snapshot + WAL and leaves the WAL open for
// appending, truncated past the last intact record. Callers hold no
// locks (Open) or guarantee exclusivity (Reopen after the flusher has
// drained).
func (d *Disk) recover() error {
	start := time.Now()
	stats := RecoveryStats{}
	var mem table

	snap, err := os.ReadFile(filepath.Join(d.dir, snapName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// First open, or no compaction has happened yet.
	case err != nil:
		return fmt.Errorf("store: snapshot: %w", err)
	default:
		// A snapshot is written atomically, so unlike the WAL it has no
		// legitimate torn tail: any flaw is real corruption, and silently
		// dropping a prefix of the state would be worse than failing loud.
		n := 0
		if _, serr := scanRecords(snap, func(rec Record) { mem.merge(rec); n++ }); serr != nil {
			return fmt.Errorf("store: corrupt snapshot: %w", serr)
		}
		stats.SnapshotRecords = n
	}

	walPath := filepath.Join(d.dir, walName)
	wal, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// The WAL may have just been created: make its directory entry
	// durable before any record in it is acknowledged.
	if err := syncDir(d.dir); err != nil {
		wal.Close()
		return fmt.Errorf("store: %w", err)
	}
	buf, err := os.ReadFile(walPath)
	if err != nil {
		wal.Close()
		return fmt.Errorf("store: %w", err)
	}
	good, scanErr := scanRecords(buf, func(rec Record) { mem.merge(rec); stats.WALRecords++ })
	if scanErr != nil {
		// Torn or corrupt tail: recover the consistent prefix and drop the
		// rest, so the next append starts at a clean record boundary.
		stats.TruncatedBytes = int64(len(buf)) - good
		if err := wal.Truncate(good); err != nil {
			wal.Close()
			return fmt.Errorf("store: truncating torn wal tail: %w", err)
		}
	}
	if _, err := wal.Seek(good, 0); err != nil {
		wal.Close()
		return fmt.Errorf("store: %w", err)
	}
	stats.WALBytes = good
	stats.Keys = len(mem.recs)
	stats.Elapsed = time.Since(start)

	d.mem = mem
	d.wal = wal
	d.walSize = good
	d.recovered = stats
	d.mRecovery.ObserveDuration(stats.Elapsed)
	return nil
}

// Recovered returns what the most recent Open or Reopen reconstructed.
func (d *Disk) Recovered() RecoveryStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.recovered
}

// Flushes returns how many group-commit batches have been written (one
// fsync each when fsync is enabled) — compare against the number of
// records staged to see group commit amortizing.
func (d *Disk) Flushes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.flushes
}

// Get returns the current record for key. Reads are served from memory
// and never wait on the log; the key is hashed before the lock is taken.
func (d *Disk) Get(key string) (Record, bool) {
	h := hashKey(key)
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mem.get(key, h)
}

// Range calls fn for every stored record, in key order, until fn
// returns false. The records are captured under the lock and delivered
// outside it, so fn may call back into the store.
func (d *Disk) Range(fn func(Record) bool) {
	d.mu.Lock()
	recs := slices.Clone(d.mem.recs)
	d.mu.Unlock()
	sortByKey(recs)
	for _, rec := range recs {
		if !fn(rec) {
			return
		}
	}
}

// Stage merges rec into memory and queues it on the pending WAL batch
// without waiting: it returns the group commit that will carry the
// record, so a caller with several records stages them all and then
// waits once per commit instead of once per record. The first record
// staged into an idle store starts the flusher, and every Stage made
// while it yields joins the same commit; everything staged while a
// write+fsync is in flight shares the next one — that is the group commit
// window, and with a batching Session upstream it is what keeps durable
// throughput within a small factor of the in-memory engine. The record is
// visible to Get at once, before its commit, like any write in flight.
func (d *Disk) Stage(rec Record) (*Commit, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.stoppedLocked(); err != nil {
		return nil, err
	}
	var err error
	if d.pending, err = AppendRecord(d.pending, rec); err != nil {
		return nil, err
	}
	d.mem.merge(rec)
	if d.commit == nil {
		d.commit = newCommit()
	}
	d.staged++
	d.mAppends.Inc()
	if !d.flushing {
		d.flushing = true
		go d.flushLoop()
	}
	return d.commit, nil
}

// Apply persists rec: Stage it, then wait for the group commit that
// carries it.
func (d *Disk) Apply(rec Record) error {
	c, err := d.Stage(rec)
	if err != nil {
		return err
	}
	return c.Wait()
}

// takePendingLocked hands the pending batch to the caller and leaves an
// empty one behind, in the spare buffer: the flusher hands each buffer
// back once written, so batches alternate between two buffers instead of
// growing a new one per commit.
func (d *Disk) takePendingLocked() (buf []byte, c *Commit, staged int) {
	buf, c, staged = d.pending, d.commit, d.staged
	d.pending, d.commit, d.staged = d.spare[:0], nil, 0
	d.spare = nil
	return buf, c, staged
}

// stoppedLocked reports why the store takes no more records: ErrClosed,
// or the failure that stopped its log; nil while it is open and well.
func (d *Disk) stoppedLocked() error {
	if d.closed {
		return ErrClosed
	}
	return d.Err()
}

// Err reports why the log stopped: the failed write or fsync, from then
// until a Reopen recovers; nil while the log is well. Until then the
// table may hold records of the failed commit that were never acked and
// that recovery drops, so a caller serving reads from it must not. It
// takes no lock.
func (d *Disk) Err() error {
	if p := d.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// cutOffLocked ends the pending commit with err: its records were acked
// to no one, so losing them is the torn-tail case recovery is built for.
func (d *Disk) cutOffLocked(err error) {
	_, c, _ := d.takePendingLocked()
	c.finish(err)
}

// flushLoop is the single goroutine with file access while it runs: it
// drains pending batches (write + one fsync each), compacts when the
// WAL passes the threshold, and exits when nothing is pending. Before
// each fsynced batch it yields once (see Disk), so a batch is whatever
// the runnable writers staged, not what a timer let in. Every commit it
// takes is always finished, success or not; after a failed write it only
// cuts off what was staged meanwhile.
func (d *Disk) flushLoop() {
	d.mu.Lock()
	for {
		if d.walSize >= d.snapThreshold && d.stoppedLocked() == nil {
			d.compactLocked()
			continue
		}
		if d.fsync && d.stoppedLocked() == nil && d.commit != nil {
			// Group-commit window: one yield, so every goroutine ready
			// to Stage lands in this batch instead of paying an fsync of
			// its own. Skipped without fsync (no per-flush floor to
			// amortize) and once stopped, so shutdown drains promptly.
			d.mu.Unlock()
			d.yield()
			d.mu.Lock()
		}
		if d.commit == nil {
			d.flushing = false
			d.cond.Broadcast()
			d.mu.Unlock()
			return
		}
		if err := d.stoppedLocked(); err != nil {
			if !d.closed {
				d.mCommitFails.Inc()
			}
			d.cutOffLocked(err)
			continue
		}
		buf, c, staged := d.takePendingLocked()
		wal := d.wal
		d.mu.Unlock()
		_, err := wal.Write(buf)
		if err == nil && d.fsync {
			err = wal.Sync()
		}
		d.mu.Lock()
		d.spare = buf
		d.flushes++
		if err != nil {
			stop := fmt.Errorf("store: wal append failed, log stopped until Reopen: %w", err)
			d.failed.Store(&stop)
			d.mCommitFails.Inc()
			d.reg.Eventf("store %s: %v", d.dir, stop)
		} else {
			d.walSize += int64(len(buf))
			if d.fsync {
				d.mFsyncs.Inc()
			}
			d.mBatch.Observe(float64(staged))
			d.mWALBytes.Add(int64(len(buf)))
		}
		// Finished last, so a writer whose Wait returns finds its flush
		// already counted in Flushes and the metrics.
		c.finish(err)
	}
}

// compactLocked writes a snapshot of the current state and truncates the
// WAL. Called with mu held by the goroutine owning the files (the
// flusher, or Snapshot after claiming); the lock is dropped around the
// file IO and retaken before returning. A failed compaction leaves the
// WAL alone — the store keeps working, just with a longer log.
func (d *Disk) compactLocked() {
	buf := make([]byte, 0, 64+32*len(d.mem.recs))
	for _, rec := range d.mem.recs {
		// Records in mem round-tripped AppendRecord once already (or came
		// from a decoded file), so re-encoding cannot fail.
		buf, _ = AppendRecord(buf, rec)
	}
	wal := d.wal
	d.mu.Unlock()
	err := func() error {
		tmp := filepath.Join(d.dir, snapTmpName)
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		if _, err = f.Write(buf); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if err := os.Rename(tmp, filepath.Join(d.dir, snapName)); err != nil {
			return err
		}
		// The rename must be durable before the truncate: otherwise a
		// crash could keep the empty WAL and lose the new snapshot's
		// directory entry, and recovery would find the old snapshot
		// alone. A crash between the two leaves the old records both in
		// the snapshot and in the WAL; recovery's last-writer-wins merge
		// makes the duplication harmless.
		if err := syncDir(d.dir); err != nil {
			return err
		}
		if err := wal.Truncate(0); err != nil {
			return err
		}
		if _, err := wal.Seek(0, 0); err != nil {
			return err
		}
		return wal.Sync()
	}()
	d.mu.Lock()
	if err == nil {
		d.walSize = 0
		d.mSnapshots.Inc()
	}
}

// syncDir fsyncs a directory, making the entries created or renamed in
// it durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// claimFilesLocked waits until no flusher owns the files and takes
// ownership (by setting flushing), failing if the store closes while
// waiting.
func (d *Disk) claimFilesLocked() error {
	for d.flushing && !d.closed {
		d.cond.Wait()
	}
	if d.closed {
		return ErrClosed
	}
	d.flushing = true
	return nil
}

// releaseFilesLocked hands file ownership back: if records were staged
// while the caller held the files, a fresh flusher drains them,
// otherwise the store goes idle.
func (d *Disk) releaseFilesLocked() {
	if d.commit != nil && !d.closed {
		go d.flushLoop()
		return
	}
	d.flushing = false
	d.cond.Broadcast()
	if d.closed {
		d.cutOffLocked(ErrClosed)
	}
}

// Reopen is the crash-recovery boundary: close the files and run the
// same recovery a fresh process would, keeping exactly what was durable.
// The pending group commit is cut off with ErrClosed — its records were
// acked to no one, so losing them is the torn-tail case recovery is built
// for — and a write+fsync already under way finishes first. It clears a
// stopped log (see Disk): recovery drops the torn bytes of the failed
// write. The engine's configuration (fsync, threshold) carries over.
func (d *Disk) Reopen() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	// A restart loses what was not yet committed.
	d.cutOffLocked(ErrClosed)
	if err := d.claimFilesLocked(); err != nil {
		return err
	}
	d.failed.Store(nil)
	d.wal.Close()
	err := d.recover()
	if err != nil {
		// The store is unusable without its files; mark it closed so
		// Stages fail fast rather than queueing forever.
		d.closed = true
	}
	d.releaseFilesLocked()
	return err
}

// Close refuses further Stages, cuts off the pending group commit with
// ErrClosed (every acked record is already on disk to the configured
// standard), waits out a write+fsync already under way, and closes the
// WAL.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	d.cutOffLocked(ErrClosed)
	d.cond.Broadcast()
	for d.flushing {
		d.cond.Wait()
	}
	return d.wal.Close()
}
