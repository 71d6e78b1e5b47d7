package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
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

// commitLinger is how long the flusher waits before each fsynced group
// commit, collecting the records of every Apply that lands in the
// window. A device sustains only a few thousand fsyncs per second no
// matter how small they are, so at high concurrency the linger is what
// turns one-fsync-per-write into one fsync per wave; at low concurrency
// it is a bounded latency tax on an operation that already pays an
// fsync. It only applies while fsync is enabled: without the fsync there
// is no per-flush floor worth amortizing.
const commitLinger = 500 * time.Microsecond

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
// written, snapshot compactions, and recovery replay time. Instruments
// are get-or-create by name, so several stores in one process (one per
// replica) share the same series — the numbers are per process, like a
// real database's. A nil registry is a no-op.
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
// fsyncs batched by group commit (concurrent Applies that arrive while a
// flush is in progress share the next one — one fsync amortized across
// the whole flush window), and a periodic snapshot + log truncation
// keeping recovery replay bounded. All file writes happen on a single
// flusher goroutine, so the WAL is strictly append-ordered.
type Disk struct {
	dir           string
	fsync         bool
	snapThreshold int64

	mu       sync.Mutex
	cond     *sync.Cond // signalled when the flusher goes idle
	mem      table      // the register map; see table
	wal      *os.File
	walSize  int64
	pending  []byte       // encoded records awaiting write+fsync
	waiters  []chan error // one per Apply in the pending batch
	flushing bool         // a flusher goroutine owns the files
	closed   bool

	recovered RecoveryStats
	flushes   int64

	// Telemetry instruments from WithMetrics; nil (no-op) by default.
	mAppends   *obs.Counter
	mFsyncs    *obs.Counter
	mWALBytes  *obs.Counter
	mBatch     *obs.Histogram
	mSnapshots *obs.Counter
	mRecovery  *obs.Histogram
}

// Open opens (or creates) a durable store in dir, running recovery:
// load the snapshot if one exists, replay the WAL tail over it with
// last-writer-wins merge, and truncate any torn or corrupt suffix left
// by a crash mid-append. The directory must be private to this store.
func Open(dir string, opts ...DiskOption) (*Disk, error) {
	d := &Disk{dir: dir, fsync: true, snapThreshold: DefaultSnapshotThreshold}
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
// Applies to see group commit amortizing.
func (d *Disk) Flushes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.flushes
}

// Get returns the current record for key. Reads are served from memory
// and never wait on the log.
func (d *Disk) Get(key string) (Record, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mem.get(key)
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

// Apply persists rec: merge into memory, append to the pending WAL
// batch, and wait for the group commit that carries it. The first Apply
// into an idle store becomes the flusher; everything arriving while a
// write+fsync is in flight shares the next one — that is the group
// commit window, and with a batching Session upstream it is what keeps
// durable throughput within a small factor of the in-memory engine.
func (d *Disk) Apply(rec Record) error {
	ch := make(chan error, 1)
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	d.mem.merge(rec)
	var err error
	if d.pending, err = AppendRecord(d.pending, rec); err != nil {
		d.mu.Unlock()
		return err
	}
	d.waiters = append(d.waiters, ch)
	d.mAppends.Inc()
	if !d.flushing {
		d.flushing = true
		go d.flushLoop()
	}
	d.mu.Unlock()
	return <-ch
}

// flushLoop is the single goroutine with file access while it runs: it
// drains pending batches (write + one fsync each), compacts when the
// WAL passes the threshold, and exits when nothing is pending. Every
// waiter of a taken batch is always answered, success or not.
func (d *Disk) flushLoop() {
	d.mu.Lock()
	for {
		if d.walSize >= d.snapThreshold && !d.closed {
			d.compactLocked()
			continue
		}
		if d.fsync && !d.closed && len(d.waiters) > 0 {
			// Group-commit window: hold the flush open so concurrent
			// Applies land in this batch instead of each paying their own
			// fsync. Skipped on close so shutdown drains promptly.
			d.mu.Unlock()
			time.Sleep(commitLinger)
			d.mu.Lock()
		}
		buf, waiters := d.pending, d.waiters
		d.pending, d.waiters = nil, nil
		if len(waiters) == 0 {
			d.flushing = false
			d.cond.Broadcast()
			d.mu.Unlock()
			return
		}
		if d.closed {
			for _, ch := range waiters {
				ch <- ErrClosed
			}
			continue
		}
		wal := d.wal
		d.mu.Unlock()
		_, err := wal.Write(buf)
		if err == nil && d.fsync {
			err = wal.Sync()
		}
		for _, ch := range waiters {
			ch <- err
		}
		if err == nil {
			if d.fsync {
				d.mFsyncs.Inc()
			}
			d.mBatch.Observe(float64(len(waiters)))
			d.mWALBytes.Add(int64(len(buf)))
		}
		d.mu.Lock()
		d.flushes++
		if err == nil {
			d.walSize += int64(len(buf))
		}
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
		// A crash between the rename above and the truncate below leaves
		// the old records both in the snapshot and in the WAL; recovery's
		// last-writer-wins merge makes the duplication harmless.
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

// releaseFilesLocked hands file ownership back: if Applies queued up
// while the caller held the files, a fresh flusher drains them,
// otherwise the store goes idle.
func (d *Disk) releaseFilesLocked() {
	if len(d.waiters) > 0 && !d.closed {
		go d.flushLoop()
		return
	}
	d.flushing = false
	d.cond.Broadcast()
	if d.closed {
		for _, ch := range d.waiters {
			ch <- ErrClosed
		}
		d.pending, d.waiters = nil, nil
	}
}

// Reopen is the crash-recovery boundary: close the files and run the
// same recovery a fresh process would, keeping exactly what was durable.
// In-flight group commits are cut off with ErrClosed — their writes were
// acked to no one, so losing them is the torn-tail case recovery is
// built for. The engine's configuration (fsync, threshold) carries over.
func (d *Disk) Reopen() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.claimFilesLocked(); err != nil {
		return err
	}
	// Cut off queued Applies: a restart loses what was not yet committed.
	for _, ch := range d.waiters {
		ch <- ErrClosed
	}
	d.pending, d.waiters = nil, nil
	d.wal.Close()
	err := d.recover()
	if err != nil {
		// The store is unusable without its files; mark it closed so
		// Applies fail fast rather than queueing forever.
		d.closed = true
	}
	d.releaseFilesLocked()
	return err
}

// Close flushes nothing extra (every acked Apply is already on disk to
// the configured standard), cuts off queued Applies with ErrClosed, and
// closes the WAL.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	for d.flushing {
		d.cond.Wait()
	}
	d.closed = true
	for _, ch := range d.waiters {
		ch <- ErrClosed
	}
	d.pending, d.waiters = nil, nil
	d.cond.Broadcast()
	return d.wal.Close()
}
