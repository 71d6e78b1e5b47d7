// Package sim is the distributed substrate the paper's quorum systems are
// built for: an in-memory keyed object space served by n servers, accessed
// through a b-masking quorum system with the read/write protocol of
// [MR98a] run independently per key. Clients write a timestamped value to
// every member of a quorum; readers collect answers from a quorum and
// accept only value/timestamp pairs vouched for by at least b+1 members,
// which the 2b+1-intersection property guarantees filters out anything
// fabricated by at most b Byzantine servers. Each key is its own register
// with its own timestamp history, so the Theorem-safety invariant holds
// key by key. Fault injection covers crashes (silent servers) and several
// Byzantine behaviors (fabrication, stale replay, equivocation), so tests
// can demonstrate both the protocol's guarantees at ≤ b faults and its
// collapse past the 2b+1 bound. The dissemination protocol of [MR98a]
// (self-verifying data, intersections of b+1) is the same Client running
// the same quorum-access loop with a different reply-acceptance rule —
// see acceptance in client.go.
//
// The access layer is a concurrent engine: clients take a context.Context
// and probe quorum members through a pluggable Transport (the built-in
// one models message loss and per-server latency) — inline, on the
// client's own goroutine, when no probe can block, in one call to a
// PhaseTransport that issues the whole phase itself, and in parallel
// goroutines otherwise — and any number of clients may run concurrently —
// each owns its rng and suspicion state, and per-server access counters
// feed Cluster.LoadProfile, the live-traffic counterpart of the paper's
// load measure (Definition 3.8). On top of the blocking single-key
// Client.Read/Client.Write sits the Session API: ReadAsync/WriteAsync
// futures whose quorum probes are coalesced per destination by a batcher
// (flush when full, or after one yield), so heavy multi-key traffic amortizes
// transport round trips without changing the per-key protocol.
package sim

import (
	"fmt"
	"strings"
	"sync"

	"bqs/internal/store"
)

// Timestamp orders writes: lexicographic on (Seq, Writer).
type Timestamp struct {
	Seq    int64
	Writer int
}

// Less reports t < u.
func (t Timestamp) Less(u Timestamp) bool {
	if t.Seq != u.Seq {
		return t.Seq < u.Seq
	}
	return t.Writer < u.Writer
}

// TaggedValue is a value with its write timestamp.
type TaggedValue struct {
	Value string
	TS    Timestamp
}

// Behavior is a server fault mode.
type Behavior int

// Server behaviors. Crashed servers never respond; Byzantine ones respond
// with adversarial content.
const (
	Correct Behavior = iota + 1
	Crashed
	// ByzantineFabricate answers reads with a fabricated value carrying a
	// timestamp far in the future (the classic attack masking quorums
	// defend against).
	ByzantineFabricate
	// ByzantineStale answers reads with the oldest value it ever stored,
	// hiding newer writes.
	ByzantineStale
	// ByzantineEquivocate answers alternate reads with alternating
	// fabricated values, so different readers see different states.
	ByzantineEquivocate
	// Restart is not a steady state but a transition: applying it kills
	// and recovers the server in place. The attached store's Reopen runs
	// the crash-recovery boundary (a durable engine replays its snapshot
	// and WAL; the in-memory engine comes back empty), the registers are
	// reloaded from whatever survived, and the server lands on Correct —
	// or Crashed, if recovery itself fails. Flowing through SetBehavior
	// lets the existing churn schedules and the wire flip item drive
	// process-level kill-and-recover cycles on remote servers.
	Restart
)

// String names the behavior for logs and tables.
func (b Behavior) String() string {
	switch b {
	case Correct:
		return "correct"
	case Crashed:
		return "crashed"
	case ByzantineFabricate:
		return "byz-fabricate"
	case ByzantineStale:
		return "byz-stale"
	case ByzantineEquivocate:
		return "byz-equivocate"
	case Restart:
		return "restart"
	default:
		return fmt.Sprintf("behavior(%d)", int(b))
	}
}

// IsByzantine reports whether the behavior is adversarial (responsive but
// lying). Crashed is benign per the paper's hybrid fault model: the b of
// Definition 3.5 counts only arbitrary faults, while crashes are the
// failures availability (Definition 3.10) is measured against.
func (b Behavior) IsByzantine() bool {
	return b == ByzantineFabricate || b == ByzantineStale || b == ByzantineEquivocate
}

// KnownBehavior reports whether b is one of the defined fault modes —
// the validity check fault schedules and the wire flip item apply
// before flipping a server.
func KnownBehavior(b Behavior) bool {
	return b >= Correct && b <= Restart
}

// ParseBehavior maps a behavior name (as printed by Behavior.String, plus
// common aliases) to its constant, for CLI fault-schedule and churn specs.
func ParseBehavior(s string) (Behavior, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "correct", "ok", "recover":
		return Correct, nil
	case "crashed", "crash", "down":
		return Crashed, nil
	case "byz-fabricate", "fabricate", "byzantine":
		return ByzantineFabricate, nil
	case "byz-stale", "stale":
		return ByzantineStale, nil
	case "byz-equivocate", "equivocate":
		return ByzantineEquivocate, nil
	case "restart", "reboot":
		return Restart, nil
	}
	return 0, fmt.Errorf("sim: unknown behavior %q (want correct, crashed, byz-fabricate, byz-stale, byz-equivocate or restart)", s)
}

// FabricatedValue is what fabricating servers return; tests assert reads
// never surface it while faults stay within b.
const FabricatedValue = "FABRICATED"

// DefaultKey is the key the single-register API (Client.Read,
// Client.Write, Server.Snapshot) operates on. The keyed object space is a
// strict superset of the original one-register data plane: the old API is
// exactly the keyed API at this key.
const DefaultKey = ""

// register is one key's replicated state on one server: the [MR98a]
// timestamped value plus the earliest write, which ByzantineStale replays.
// Every key has an independent register, so the per-key timestamp protocol
// keeps the masking invariant key by key.
type register struct {
	current  TaggedValue
	first    TaggedValue
	hasFirst bool
}

// Server is one replica of the keyed object space.
type Server struct {
	id    int
	store store.Store // nil: registers live only in memory

	mu       sync.Mutex
	behavior Behavior
	regs     map[string]*register
	reads    int // served read count, drives equivocation alternation
	writes   int
	// colludeTS lets a test coordinate fabricators on one fake timestamp.
	colludeTS Timestamp
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithStore attaches a storage engine: every applied write is persisted
// to st before it is acknowledged, the Restart behavior recovers through
// st.Reopen, and state st already holds (a durable engine opened on an
// existing data dir) seeds the registers at construction. Without it the
// server keeps the original memory-only semantics.
func WithStore(st store.Store) ServerOption {
	return func(s *Server) { s.store = st }
}

// NewServer returns a correct server whose object space is whatever its
// store recovered — empty when no store (or a fresh one) is attached.
func NewServer(id int, opts ...ServerOption) *Server {
	s := &Server{
		id:        id,
		behavior:  Correct,
		regs:      make(map[string]*register),
		colludeTS: Timestamp{Seq: 1 << 40, Writer: -1},
	}
	for _, opt := range opts {
		opt(s)
	}
	s.loadFromStore()
	return s
}

// Store returns the attached storage engine, or nil.
func (s *Server) Store() store.Store { return s.store }

// loadFromStore rebuilds the registers from the store's current state —
// the recovery half of a restart, and the startup path for a server
// reopening an existing data dir. With no store attached the registers
// come back empty (restart means amnesia without a durable engine). The
// earliest-write history is gone after a restart, so first is reset to
// current.
func (s *Server) loadFromStore() {
	regs := make(map[string]*register)
	if s.store != nil {
		s.store.Range(func(rec store.Record) bool {
			tv := TaggedValue{Value: rec.Value, TS: Timestamp{Seq: rec.Seq, Writer: int(rec.Writer)}}
			regs[rec.Key] = &register{current: tv, first: tv, hasFirst: true}
			return true
		})
	}
	s.mu.Lock()
	s.regs = regs
	s.mu.Unlock()
}

// reg returns key's register, creating it when create is set; a read of a
// never-written key sees the zero register without allocating state.
func (s *Server) reg(key string, create bool) *register {
	r := s.regs[key]
	if r == nil && create {
		r = &register{}
		s.regs[key] = r
	}
	return r
}

// ID returns the server id.
func (s *Server) ID() int { return s.id }

// SetBehavior switches the server's fault mode. Restart is special: it
// is the kill-and-recover transition, not a state — see restart.
func (s *Server) SetBehavior(b Behavior) {
	if b == Restart {
		s.restart()
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.behavior = b
}

// restart simulates a process kill and recovery in place: the store's
// Reopen runs the crash-recovery boundary, the registers reload from
// whatever survived it, and the server comes back Correct. A server with
// no store restarts into amnesia, exactly as the pre-store churn engine
// behaved. If recovery itself fails the server stays Crashed — a replica
// that cannot read its own log must not serve.
func (s *Server) restart() {
	s.mu.Lock()
	s.behavior = Crashed
	s.mu.Unlock()
	if s.store != nil {
		if err := s.store.Reopen(); err != nil {
			return
		}
	}
	s.loadFromStore()
	s.mu.Lock()
	s.behavior = Correct
	s.mu.Unlock()
}

// Behavior returns the current fault mode.
func (s *Server) Behavior() Behavior {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.behavior
}

// HandleWrite applies a timestamped write to key's register. It returns
// false when the server is unresponsive (crashed), or when an attached
// store could not make the write durable — to the client both read as
// unresponsiveness, the protocol's correct signal for a write whose
// durability is unknown. Byzantine servers acknowledge but may discard.
//
// Persistence happens before the register update and outside the server
// lock: holding mu across a disk fsync would serialize concurrent
// writers and defeat the store's group commit, and applying the register
// only after Apply returns keeps memory from getting ahead of the log.
func (s *Server) HandleWrite(key string, tv TaggedValue) bool {
	s.mu.Lock()
	if s.behavior == Crashed {
		s.mu.Unlock()
		return false
	}
	// ByzantineFabricate/ByzantineEquivocate acknowledge without storing
	// faithfully (they store anyway; responses are fabricated regardless).
	s.writes++
	s.mu.Unlock()

	if s.store != nil {
		rec := store.Record{Key: key, Value: tv.Value, Seq: tv.TS.Seq, Writer: int64(tv.TS.Writer)}
		if err := s.store.Apply(rec); err != nil {
			return false
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.reg(key, true)
	if !r.hasFirst {
		r.first = tv
		r.hasFirst = true
	}
	if r.current.TS.Less(tv.TS) {
		r.current = tv
	}
	return true
}

// HandleRead returns the server's answer to a read probe of key's
// register, and false when unresponsive. A never-written key reads as the
// zero TaggedValue, like the empty register it is.
func (s *Server) HandleRead(readerID int, key string) (TaggedValue, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reads++
	switch s.behavior {
	case Crashed:
		return TaggedValue{}, false
	case ByzantineFabricate:
		return TaggedValue{Value: FabricatedValue, TS: s.colludeTS}, true
	case ByzantineStale:
		if r := s.reg(key, false); r != nil && r.hasFirst {
			return r.first, true
		}
		return TaggedValue{}, true
	case ByzantineEquivocate:
		v := fmt.Sprintf("%s-%d", FabricatedValue, s.reads%2)
		return TaggedValue{Value: v, TS: Timestamp{Seq: s.colludeTS.Seq + int64(s.reads%2), Writer: -1}}, true
	default:
		if r := s.reg(key, false); r != nil {
			return r.current, true
		}
		return TaggedValue{}, true
	}
}

// HandleRequest dispatches a protocol message to the server and returns
// its answer. This is the hook a message layer needs to host a replica:
// the in-memory transport calls it directly, and the wire package's TCP
// listener calls it for each decoded frame. A server that is unresponsive
// (crashed) answers Response{OK: false}; the error return is reserved for
// malformed requests (an Op the protocol doesn't define).
func (s *Server) HandleRequest(req Request) (Response, error) {
	switch req.Op {
	case OpRead, OpReadTimestamps:
		tv, ok := s.HandleRead(req.ReaderID, req.Key)
		return Response{OK: ok, Value: tv}, nil
	case OpWrite:
		return Response{OK: s.HandleWrite(req.Key, req.Value)}, nil
	default:
		return Response{}, fmt.Errorf("sim: server %d: unknown %v", s.id, req.Op)
	}
}

// Snapshot returns the faithfully stored value of the DefaultKey register
// (for test assertions, not part of the protocol).
func (s *Server) Snapshot() TaggedValue { return s.SnapshotKey(DefaultKey) }

// SnapshotKey returns the faithfully stored value of key's register (for
// test assertions, not part of the protocol).
func (s *Server) SnapshotKey(key string) TaggedValue {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.reg(key, false); r != nil {
		return r.current
	}
	return TaggedValue{}
}

// Keys returns the keys this replica has faithfully stored at least one
// write for, in no particular order (for test assertions).
func (s *Server) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.regs))
	for k := range s.regs {
		out = append(out, k)
	}
	return out
}
