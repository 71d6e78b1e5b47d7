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
// collapse past the 2b+1 bound. The reply-acceptance rule — which
// answers of a quorum a client may believe — is masking in client.go.
//
// The access layer is a concurrent engine: clients take a context.Context
// and probe quorum members through a pluggable Transport (the built-in
// one models message loss and per-server latency) — in one call that
// serves the whole phase, on the client's own goroutine, for the built-in
// transport without a latency model and for a PhaseTransport, and in
// parallel goroutines otherwise — and any number of clients may run
// concurrently —
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
	"sync/atomic"

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
	// ByzantineStale answers reads with what it held when it turned stale,
	// hiding every newer write: an authentic older value, not a forgery.
	ByzantineStale
	// ByzantineEquivocate answers alternate reads with alternating
	// fabricated values, so different readers see different states.
	ByzantineEquivocate
	// Restart is not a steady state but a transition: applying it kills
	// and recovers the server in place. The store's Reopen runs the
	// crash-recovery boundary (a durable engine replays its snapshot and
	// WAL; the in-memory engine comes back empty), and since the store is
	// the server's register map, the server then serves whatever survived.
	// It lands on Correct — or Crashed, if recovery itself fails. Flowing
	// through SetBehavior lets the existing churn schedules and the wire
	// flip item drive process-level kill-and-recover cycles on remote
	// servers.
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

// Server is one replica of the keyed object space. Its registers are its
// storage engine's records, one per key: every key is an independent
// [MR98a] register, so the per-key timestamp protocol keeps the masking
// invariant key by key, and the server holds no second copy of them.
type Server struct {
	id    int
	store store.Store
	// mem is store when it is a *store.Mem, resolved once at
	// construction: a write to it applies in place, with no Commit and
	// no per-probe type switch on the in-memory hot path.
	mem *store.Mem
	// storeErr is the store's Err when it has one (a store.Disk), resolved
	// once at construction: non-nil while its log is stopped (see stopped).
	storeErr func() error

	// behavior is the fault mode. Every probe reads it without a lock;
	// it changes only under mu, together with stale.
	behavior atomic.Int32

	mu sync.Mutex
	// stale is what a ByzantineStale server replays: its registers as they
	// stood when it turned stale. Nil in every other mode.
	stale map[string]TaggedValue
	reads int // equivocating reads served, drives the alternation
	// colludeTS lets a test coordinate fabricators on one fake timestamp.
	colludeTS Timestamp
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithStore sets the server's storage engine, which holds its registers:
// every applied write is persisted to st before it is acknowledged, reads
// are served from st, the Restart behavior recovers through st.Reopen, and
// state st already holds (a durable engine opened on an existing data dir)
// is served from construction on. Without it the server runs on a fresh
// store.Mem, whose registers die with the process.
func WithStore(st store.Store) ServerOption {
	return func(s *Server) { s.store = st }
}

// NewServer returns a correct server whose object space is whatever its
// store holds — empty on the default store.Mem or a fresh engine.
func NewServer(id int, opts ...ServerOption) *Server {
	s := &Server{
		id:        id,
		colludeTS: Timestamp{Seq: 1 << 40, Writer: -1},
	}
	s.behavior.Store(int32(Correct))
	for _, opt := range opts {
		opt(s)
	}
	if s.store == nil {
		s.store = store.NewMem()
	}
	s.mem, _ = s.store.(*store.Mem)
	if st, ok := s.store.(interface{ Err() error }); ok {
		s.storeErr = st.Err
	}
	return s
}

// SetBehavior switches the server's fault mode. Turning ByzantineStale
// copies the registers the server then holds, which it replays from then
// on. Restart is special: it is the kill-and-recover transition, not a
// state — see restart.
func (s *Server) SetBehavior(b Behavior) {
	if b == Restart {
		s.restart()
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case b != ByzantineStale:
		s.stale = nil
	case s.Behavior() != ByzantineStale:
		s.stale = make(map[string]TaggedValue)
		s.store.Range(func(rec store.Record) bool {
			s.stale[rec.Key] = tagged(rec)
			return true
		})
	}
	s.behavior.Store(int32(b))
}

// restart simulates a process kill and recovery in place: the store's
// Reopen runs the crash-recovery boundary and the server comes back
// Correct, serving whatever survived — nothing, on a store.Mem. If
// recovery itself fails the server stays Crashed — a replica that cannot
// read its own log must not serve.
func (s *Server) restart() {
	s.SetBehavior(Crashed)
	if s.store.Reopen() != nil {
		return
	}
	s.SetBehavior(Correct)
}

// stopped reports whether the server's store has stopped its log after a
// failed write (Disk.Err). Its memory may then hold writes that were
// nacked and that recovery drops, so until a Restart recovers the store
// the server answers every read as Crashed does (Definition 3.10's
// crash-and-recover model) and gives a handoff no state; its writes the
// stopped store refuses itself.
func (s *Server) stopped() bool { return s.storeErr != nil && s.storeErr() != nil }

// Behavior returns the current fault mode. It takes no lock, so the
// probe path writes nothing another core reads.
func (s *Server) Behavior() Behavior { return Behavior(s.behavior.Load()) }

// HandleWrite applies a timestamped write to key's register. It returns
// false when the server is unresponsive (crashed, or over a stopped
// store), or when the store could not make the write durable — to the
// client both read as unresponsiveness, the protocol's correct signal for
// a write whose durability is unknown. Byzantine servers acknowledge but
// may discard.
func (s *Server) HandleWrite(key string, tv TaggedValue) bool {
	ok, c := s.stageWrite(key, tv)
	return ok && c.Wait() == nil
}

// stageWrite stages a write in the server's store and returns the
// commit to wait on before acking it; false means no ack at all.
//
// The store runs outside the server lock: holding mu across a disk
// fsync would serialize concurrent writers and defeat the store's group
// commit. A read of a store.Disk-backed server may see a record still
// waiting for its group commit. That is the same as seeing a write in
// flight, so the safe-register argument holds: an acknowledged write was
// made durable at every server that acknowledged it.
func (s *Server) stageWrite(key string, tv TaggedValue) (bool, *store.Commit) {
	// ByzantineFabricate/ByzantineEquivocate acknowledge without storing
	// faithfully (they store anyway; responses are fabricated regardless).
	if s.Behavior() == Crashed {
		return false, nil
	}
	rec := store.Record{Key: key, Value: tv.Value, Seq: tv.TS.Seq, Writer: int64(tv.TS.Writer)}
	if s.mem != nil {
		return s.mem.Apply(rec) == nil, nil
	}
	c, err := store.Stage(s.store, rec) // a stopped store refuses it
	return err == nil, c
}

// HandleRead returns the server's answer to a read probe of key's
// register, and false when unresponsive (crashed, or over a stopped
// store). A never-written key reads as the zero TaggedValue, like the
// empty register it is.
func (s *Server) HandleRead(readerID int, key string) (TaggedValue, bool) {
	if s.stopped() {
		return TaggedValue{}, false
	}
	switch s.Behavior() {
	case Crashed:
		return TaggedValue{}, false
	case ByzantineFabricate:
		return TaggedValue{Value: FabricatedValue, TS: s.colludeTS}, true
	case ByzantineStale, ByzantineEquivocate:
		if tv, ok := s.byzantineRead(key); ok {
			return tv, true
		}
	}
	return s.SnapshotKey(key), true
}

// byzantineRead answers a read for a stale or equivocating server from
// the state mu guards: the frozen registers, or the alternation count.
// HandleRead reads the behavior without the lock, so a flip can land
// before this takes it; the behavior is therefore decided again here,
// under mu. It reports false when the server is no longer stale or
// equivocating, and the caller then serves the store.
func (s *Server) byzantineRead(key string) (TaggedValue, bool) {
	s.mu.Lock()
	switch s.Behavior() {
	case ByzantineStale:
		tv := s.stale[key]
		s.mu.Unlock()
		return tv, true
	case ByzantineEquivocate:
		s.reads++
		odd := s.reads % 2
		s.mu.Unlock()
		v := fmt.Sprintf("%s-%d", FabricatedValue, odd)
		return TaggedValue{Value: v, TS: Timestamp{Seq: s.colludeTS.Seq + int64(odd), Writer: -1}}, true
	}
	s.mu.Unlock()
	return TaggedValue{}, false
}

// HandleRequest dispatches a protocol message to the server and returns
// its answer. This is the hook a message layer needs to host a replica:
// the in-memory transport calls it directly, and the wire package's TCP
// listener calls StageRequest for each decoded item. A server
// that is unresponsive (crashed), or whose store failed to make a write
// durable, answers Response{OK: false}; the error return is reserved for
// malformed requests (an Op the protocol doesn't define).
func (s *Server) HandleRequest(req Request) (Response, error) {
	switch req.Op {
	case OpRead, OpReadTimestamps:
		tv, ok := s.HandleRead(req.ReaderID, req.Key)
		if req.Op == OpReadTimestamps {
			tv.Value = "" // the timestamp alone, whatever the behavior
		}
		return Response{OK: ok, Value: tv}, nil
	case OpWrite:
		return Response{OK: s.HandleWrite(req.Key, req.Value)}, nil
	default:
		return Response{}, fmt.Errorf("sim: server %d: unknown %v", s.id, req.Op)
	}
}

// StageRequest is HandleRequest without the wait: a write is staged in
// the server's store, and its OK stands only once the returned commit's
// Wait succeeds — a failed commit is a NACK. Every other request is
// answered in full, with a nil commit, as is a write that is already
// durable (a store.Mem) or not acked at all. A caller with several
// requests for stores that group commit stages them all and then waits,
// so they share one commit instead of one goroutine each.
func (s *Server) StageRequest(req Request) (Response, *store.Commit, error) {
	if req.Op != OpWrite {
		resp, err := s.HandleRequest(req)
		return resp, nil, err
	}
	ok, c := s.stageWrite(req.Key, req.Value)
	return Response{OK: ok}, c, nil
}

// SnapshotKey returns the faithfully stored value of key's register,
// whatever the server's behavior.
func (s *Server) SnapshotKey(key string) TaggedValue {
	rec, _ := s.store.Get(key)
	return tagged(rec)
}

// Keys returns the keys this replica has faithfully stored at least one
// write for, in the store's order.
func (s *Server) Keys() []string {
	var out []string
	s.store.Range(func(rec store.Record) bool {
		out = append(out, rec.Key)
		return true
	})
	return out
}

// tagged is the register value a store record holds.
func tagged(rec store.Record) TaggedValue {
	return TaggedValue{Value: rec.Value, TS: Timestamp{Seq: rec.Seq, Writer: int(rec.Writer)}}
}
