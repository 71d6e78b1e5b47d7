// Package store is the durability seam behind sim.Server: a pluggable
// Store holds the replica's applied writes, so what survives a server
// restart is a property of the chosen engine rather than of the protocol
// code. The paper's availability model (Definition 3.10, Propositions
// 4.3-4.5) is about servers that crash and RECOVER; with the seed's bare
// in-memory map a "recovered" server came back amnesiac, safe only
// because the [MR98a] protocol re-vouches timestamps on every read. This
// package makes recovery real: Mem keeps the map semantics (state dies
// with the process, the zero-cost default), and Disk is a durable engine
// — an append-only, CRC-checksummed write-ahead log with group-commit
// fsync batching, periodic snapshots with log truncation, a fail-stop rule
// for a failed append, and a recovery path that replays snapshot + log
// tail, tolerating a torn final record.
//
// The unit of storage is a Record: one applied write of the keyed object
// space, carrying (key, value, timestamp, writerID).
// Apply is last-writer-wins by timestamp — exactly the register merge rule
// the protocol runs — so replaying any superset of the log in any order
// converges to the same state, which is what makes the recovery path
// (snapshot possibly newer than the log tail, duplicated records after a
// crashed compaction) correct without coordination.
package store

import (
	"errors"
	"slices"
	"sync"
)

// Record is one applied write: the durable form of a key's timestamped
// register value. Seq and Writer are the [MR98a] timestamp (lexicographic
// order on the pair). It carries no signature: masking values are vouched
// for by quorum intersection. At 48 bytes (TestRecordSize) a slab record
// spans at most two cache lines; codec.go keeps the WAL's signature slot.
type Record struct {
	Key    string
	Value  string
	Seq    int64
	Writer int64
}

// After reports whether r's timestamp is strictly newer than u's —
// lexicographic on (Seq, Writer), the protocol's write order.
func (r Record) After(u Record) bool {
	if r.Seq != u.Seq {
		return r.Seq > u.Seq
	}
	return r.Writer > u.Writer
}

// ErrClosed is returned by operations on a closed store, and handed to
// writers whose group commit was cut off by Close or Reopen — to the
// server that means "do not ack", which the protocol reads as
// unresponsiveness, the correct signal for a write whose durability is
// unknown.
var ErrClosed = errors.New("store: closed")

// Store is what sim.Server needs from a storage engine: it is the
// server's register map, one Record per key, and the server keeps no
// other copy. Implementations must be safe for concurrent use: writes
// arrive from concurrent connections and quorum phases, Get from every
// read probe, Range from fault injection, state handoff and tests.
//
// Get and Range serve reads and must not wait on durability. Apply
// persists a record with last-writer-wins timestamp merge and returns
// only once the record is durable to the engine's standard (a map update
// for Mem, a group-committed log append for Disk) — the server acks the
// write after, never before. The server writes through Stage (below),
// which splits an Apply in two: an engine with a Stage method of its own
// (Disk) merges the record and queues it at once, and hands back the
// Commit to wait on, so one caller can stage every write of a frame and
// wait once per group commit. Reopen is the crash-recovery boundary: it
// drops every process-local structure and rebuilds state exactly as a
// fresh process would, so a restarted server keeps what the engine made
// durable and loses what it did not. Close releases resources; a closed
// store refuses further Applies.
type Store interface {
	Get(key string) (Record, bool)
	Apply(rec Record) error
	Range(fn func(Record) bool)
	Reopen() error
	Close() error
}

// Commit is one group commit: every record staged into it becomes
// durable, or fails, together. The flusher finishes it once, closing
// done; err is set before and read only after.
type Commit struct {
	done chan struct{}
	err  error
}

func newCommit() *Commit { return &Commit{done: make(chan struct{})} }

// finish records the commit's outcome and releases its waiters. A nil
// commit has nothing to release.
func (c *Commit) finish(err error) {
	if c == nil {
		return
	}
	c.err = err
	close(c.done)
}

// Wait blocks until the commit is finished and returns its error: nil
// once every record in it is durable, ErrClosed if Close or Reopen cut it
// off, or the write or fsync error that stopped the log (see Disk). A nil
// *Commit stands for a record that was durable when staged, and returns
// nil at once.
func (c *Commit) Wait() error {
	if c == nil {
		return nil
	}
	<-c.done
	return c.err
}

// Stage starts rec's Apply on st without waiting for it to become
// durable, and returns the Commit to wait on before the write may be
// acked. An engine with a Stage method of its own (Disk) merges and
// queues the record there; a *Mem applies it at once and returns a nil
// Commit; any other engine — a wrapper, a foreign engine — runs its
// Apply on a goroutine behind a Commit of its own, since Stage must not
// wait: wire shards call it on their read loops. A nil Commit marks a
// durable write. A non-nil error means the record was not staged at all.
func Stage(st Store, rec Record) (*Commit, error) {
	switch s := st.(type) {
	case *Mem:
		return nil, s.Apply(rec)
	case interface{ Stage(Record) (*Commit, error) }:
		return s.Stage(rec)
	}
	c := newCommit()
	go func() { c.finish(st.Apply(rec)) }()
	return c, nil
}

// Mem is the in-memory engine, and every sim.Server's default: the
// seed's bare register map behind the Store interface. Nothing is
// durable — Reopen, the crash-recovery boundary, wipes it — which makes
// Mem the explicit form of the amnesiac recovery the churn engine had
// before this package existed.
//
// Its registers live in a table (see table.go): a dense slab of Records
// behind an insert-only index of 8-byte slots, the layout Disk keeps in
// memory too. A Get is every in-memory read probe, and with thousands of
// keys on each of a dozen replicas the registers outgrow the cache, so
// what a lookup costs is the cache lines it misses: one slot line, eight
// slots to a line, and the 48-byte record's line, or two. One Mutex
// guards the table: every critical section is one lookup, the key hashed
// before it, and under an RWMutex a reader that arrives behind a pending
// Lock parks instead of spinning. Measured on the in-memory benchmark,
// an RWMutex left throughput flat and quadrupled p99 latency.
type Mem struct {
	mu     sync.Mutex
	t      table
	closed bool
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{} }

// Get returns the current record for key, hashing the key before the lock.
func (s *Mem) Get(key string) (Record, bool) {
	h := hashKey(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.get(key, h)
}

// Apply merges rec by timestamp: the stored record only changes when rec
// is strictly newer.
func (s *Mem) Apply(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.t.merge(rec)
	return nil
}

// Range calls fn for every stored record, in key order, stopping early
// when fn returns false. Key order makes iteration deterministic, which
// recovery-comparison tests rely on. The records are copied under the
// lock and delivered outside it, so fn may call back into the store.
func (s *Mem) Range(fn func(Record) bool) {
	s.mu.Lock()
	recs := slices.Clone(s.t.recs)
	s.mu.Unlock()
	sortByKey(recs)
	for _, rec := range recs {
		if !fn(rec) {
			return
		}
	}
}

// Reopen simulates a process restart: memory is lost, so the store comes
// back empty.
func (s *Mem) Reopen() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.t = table{}
	return nil
}

// Close marks the store closed; further Applies fail with ErrClosed.
func (s *Mem) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}
