package bqs

import (
	"math/rand"
	"time"

	"bqs/internal/bitset"
	"bqs/internal/compose"
	"bqs/internal/core"
	"bqs/internal/measures"
	"bqs/internal/obs"
	"bqs/internal/sim"
	"bqs/internal/store"
	"bqs/internal/systems"
	"bqs/internal/wire"
)

// Core model types, re-exported from the internal implementation.
type (
	// Set is a set of server indices; quorums and failure patterns are Sets.
	Set = bitset.Set
	// System is the minimal quorum-system interface (selection under a
	// failure pattern).
	System = core.System
	// Enumerable is a System whose quorum list is materialized.
	Enumerable = core.Enumerable
	// Enumerator is an implicit System that can materialize its quorum
	// list on demand (Threshold, Grid, M-Grid, RT).
	Enumerator = core.Enumerator
	// Parameterized exposes c(Q), IS(Q) and MT(Q).
	Parameterized = core.Parameterized
	// Masking is a b-masking System (Definition 3.5).
	Masking = core.Masking
	// Construction is a System with its parameters — what a cluster, a
	// harness or a verifier needs of a built quorum system. Its fault-free
	// SelectQuorum draws the construction's access strategy
	// (Definition 3.8).
	Construction = core.Construction
	// ExplicitSystem is a materialized quorum system with exact analysis.
	ExplicitSystem = core.ExplicitSystem
	// Strategy is an access strategy over an explicit system's quorums.
	Strategy = core.Strategy
	// Composite is the lazy composition S∘R (Definition 4.6).
	Composite = compose.Composite
	// MCResult is a Monte Carlo crash-probability estimate.
	MCResult = measures.MCResult
	// Row is a construction's paper quantities — n, c, IS, MT, b, f, L
	// against Thm 4.1 and Cor 4.2, and (after Row.Crash) F_p against
	// Props 4.3–4.5 — with Failed listing the claims it violates.
	Row = measures.Row

	// Threshold is the ℓ-of-n system (Table 2 baseline / RT block).
	Threshold = systems.Threshold
	// Grid is the rows-and-columns type of NewMGrid's multi-grid (§5.1).
	Grid = systems.Grid
	// RT is the recursive threshold construction of §5.2.
	RT = systems.RT
	// BoostFPP is the boosted finite projective plane of §6.
	BoostFPP = systems.BoostFPP
	// MPath is the multi-path construction of §7.
	MPath = systems.MPath

	// Cluster is a simulated server fleet behind a masking quorum system,
	// safe for any number of concurrent clients.
	Cluster = sim.Cluster
	// Client reads and writes the replicated variable via quorums with
	// the b-masking protocol (Cluster.NewClient), and its context-aware
	// operations honor deadlines and cancellation. A quorum phase runs on
	// the caller's goroutine: one call over the built-in transport, which
	// under a latency model calls each member at its arrival time, and
	// over TCP one frame per member with one flush per shard connection.
	// It fans out a goroutine per member only for a Session's batched
	// probes or under a custom WithTransport.
	Client = sim.Client
	// Behavior is a server fault mode for injection.
	Behavior = sim.Behavior
	// TaggedValue is a register value with its write timestamp.
	TaggedValue = sim.TaggedValue
	// Timestamp orders writes: lexicographic on (Seq, Writer).
	Timestamp = sim.Timestamp
	// Server is one replica of the shared variable.
	Server = sim.Server
	// ClusterOption configures NewCluster (seed, loss, latency, transport).
	ClusterOption = sim.Option
	// Transport delivers protocol messages to servers; implement it to run
	// the protocol over a custom message layer.
	Transport = sim.Transport
	// Request is a protocol message addressed to one server; Key names
	// the register it targets.
	Request = sim.Request
	// Response is a server's answer to a Request.
	Response = sim.Response
	// Op identifies a protocol message type.
	Op = sim.Op
	// BatchItem is one operation of a batched transport frame.
	BatchItem = sim.BatchItem
	// BatchTransport is the optional whole-frame fast path a Transport
	// can offer the session batcher.
	BatchTransport = sim.BatchTransport
	// BatchGrouper is the optional coalescing hint a Transport can give
	// the session batcher (probes to one shard share a frame).
	BatchGrouper = sim.BatchGrouper
	// Session is the asynchronous, batching face of a client: futures
	// plus per-destination frame coalescing; see Client.NewSession.
	Session = sim.Session
	// SessionOption configures NewSession (batch size).
	SessionOption = sim.SessionOption
	// ReadFuture is the pending result of Session.ReadAsync.
	ReadFuture = sim.ReadFuture
	// WriteFuture is the pending result of Session.WriteAsync.
	WriteFuture = sim.WriteFuture

	// Store is the pluggable storage engine behind a Server: a keyed map
	// of timestamped records with last-writer-wins merge. NewMemStore
	// returns the volatile engine, OpenDiskStore the durable WAL +
	// snapshot engine with true crash-recovery.
	Store = store.Store
	// StoreRecord is one durable register version: key, value and the
	// (Seq, Writer) timestamp that orders it.
	StoreRecord = store.Record
	// DiskOption configures OpenDiskStore (fsync policy, metrics).
	DiskOption = store.DiskOption
	// DiskStore is the durable engine: an append-only CRC-checksummed WAL
	// with group commit, periodic snapshots, and recovery that tolerates a
	// torn tail.
	DiskStore = store.Disk
	// ServerOption configures NewServer (durable storage).
	ServerOption = sim.ServerOption

	// WireServer is a TCP daemon hosting a shard of sim servers; see
	// NewWireServer.
	WireServer = wire.Server
	// WireServerOption configures NewWireServer (metrics).
	WireServerOption = wire.ServerOption
	// WireClient is a Transport that carries probes over TCP with
	// connection pooling, request pipelining and automatic reconnect; see
	// DialWire.
	WireClient = wire.Client
	// WireDialOption configures DialWire.
	WireDialOption = wire.DialOption

	// MetricsRegistry is the instrument registry the wire client and
	// server and the disk stores report into (frames, bytes, batch sizes
	// and dials; WAL appends, fsync batches, snapshots and recovery time);
	// see NewMetricsRegistry. Without a registry every instrument call is
	// a nil-receiver no-op and the hot paths stay allocation-free.
	MetricsRegistry = obs.Registry
)

// ErrWireServerClosed is returned by WireServer.Serve after Shutdown or
// Close.
var ErrWireServerClosed = wire.ErrServerClosed

// Server fault modes for Cluster.InjectFault.
const (
	Correct             = sim.Correct
	Crashed             = sim.Crashed
	ByzantineFabricate  = sim.ByzantineFabricate
	ByzantineStale      = sim.ByzantineStale
	ByzantineEquivocate = sim.ByzantineEquivocate
	// Restart is the kill-and-recover transition: crash the server, run
	// its store's crash-recovery path (Store.Reopen), and return it to
	// Correct — or leave it Crashed if recovery fails. A server without a
	// durable store restarts with amnesia.
	Restart = sim.Restart
)

// Protocol message types, for custom Transport implementations.
const (
	// OpReadTimestamps asks a server for its register's timestamp only;
	// the reply's Value.Value is empty.
	OpReadTimestamps = sim.OpReadTimestamps
	OpRead           = sim.OpRead
	OpWrite          = sim.OpWrite
)

// FabricatedValue is the marker value Byzantine fabricators return in the
// simulation; reads must never surface it while faults stay within b.
const FabricatedValue = sim.FabricatedValue

// NewSet returns an empty Set sized for a universe of n servers.
func NewSet(n int) Set { return bitset.New(n) }

// SetOf returns a Set holding the given server indices.
func SetOf(elems ...int) Set { return bitset.FromSlice(elems) }

// NewExplicit builds and verifies an explicit quorum system
// (Definition 3.1) over the universe {0,…,n−1}.
func NewExplicit(name string, n int, quorums []Set) (*ExplicitSystem, error) {
	return core.NewExplicit(name, n, quorums)
}

// NewMaskingThreshold returns the b-masking Threshold of [MR98a]: quorums
// of size ⌈(n+2b+1)/2⌉ over n ≥ 4b+1 servers.
func NewMaskingThreshold(n, b int) (*Threshold, error) { return systems.NewMaskingThreshold(n, b) }

// NewMajority returns the ⌊n/2⌋+1-of-n majority system [Tho79].
func NewMajority(n int) (*Threshold, error) { return systems.NewMajority(n) }

// NewMGrid returns the M-Grid construction of §5.1 on a d×d universe:
// quorums of √(b+1) rows plus √(b+1) columns, optimal load.
func NewMGrid(d, b int) (*Grid, error) { return systems.NewMGrid(d, b) }

// NewRT returns the recursive threshold RT(k,ℓ) of depth h (§5.2).
func NewRT(k, l, h int) (*RT, error) { return systems.NewRT(k, l, h) }

// NewBoostFPP returns boostFPP(q, b) = FPP(q) ∘ Thresh(3b+1 of 4b+1) (§6);
// q must be a prime power.
func NewBoostFPP(q, b int) (*BoostFPP, error) { return systems.NewBoostFPP(q, b) }

// NewMPath returns the M-Path construction of §7 on a d×d triangulated
// grid: quorums of √(2b+1) disjoint left-right plus √(2b+1) disjoint
// top-bottom paths; optimal in both load and crash probability.
func NewMPath(d, b int) (*MPath, error) { return systems.NewMPath(d, b) }

// NewWheel returns the wheel system of [NW98] over n servers.
func NewWheel(n int) (*ExplicitSystem, error) { return systems.NewWheel(n) }

// Compose returns the lazy composition S∘R of Definition 4.6; parameters
// multiply per Theorem 4.7.
func Compose(outer, inner System) *Composite { return compose.New(outer, inner) }

// Boost applies the §6 boosting technique to any quorum system:
// Boost(S, b) = S ∘ Thresh(3b+1 of 4b+1) is b-masking.
func Boost(regular System, b int) (*Composite, error) { return systems.Boost(regular, b) }

// Resilience returns f = MT(Q) − 1 (Definition 3.4).
func Resilience(p Parameterized) int { return core.Resilience(p) }

// MaskingBound applies Corollary 3.7: b = min{MT−1, (IS−1)/2}.
func MaskingBound(p Parameterized) int { return core.MaskingBoundFromParams(p) }

// Load solves the Definition 3.8 linear program exactly for an explicit
// system, returning L(Q) and an optimal access strategy.
func Load(sys Enumerable) (float64, *Strategy, error) { return measures.Load(sys) }

// UniformStrategy returns the strategy giving each of m quorums weight
// 1/m — load-optimal exactly for fair systems (Proposition 3.9).
func UniformStrategy(m int) *Strategy { return core.UniformStrategy(m) }

// AsEnumerable returns a materialized view of sys (itself when already
// Enumerable, its Enumerate(limit) when an Enumerator), or an error when
// it can do neither.
func AsEnumerable(sys System, limit int) (Enumerable, error) {
	return core.AsEnumerable(sys, limit)
}

// LoadLowerBound is Theorem 4.1: L(Q) ≥ max{(2b+1)/c, c/n}.
func LoadLowerBound(n, b, c int) float64 { return measures.LoadLowerBound(n, b, c) }

// GlobalLoadLowerBound is Corollary 4.2: L(Q) ≥ √((2b+1)/n).
func GlobalLoadLowerBound(n, b int) float64 { return measures.GlobalLoadLowerBound(n, b) }

// CrashProbabilityMC estimates F_p by Monte Carlo for systems of any size.
func CrashProbabilityMC(sys System, p float64, trials int, rng *rand.Rand) (MCResult, error) {
	return measures.CrashProbabilityMC(sys, p, trials, rng)
}

// NewRow fills the p-independent columns of s's Row; Row.Crash adds F_p,
// exact where a closed form or enumeration reaches, else Monte Carlo.
func NewRow(s Construction) Row { return measures.NewRow(s) }

// CrashLowerBoundMT is Proposition 4.3: F_p ≥ p^MT.
func CrashLowerBoundMT(mt int, p float64) float64 { return measures.CrashLowerBoundMT(mt, p) }

// NewCluster builds a simulated server fleet running the [MR98a]
// replicated-variable protocol over the given b-masking system. The fleet
// is safe for any number of concurrent clients; customize it with
// functional options:
//
//	bqs.NewCluster(sys, b, bqs.WithSeed(42), bqs.WithDropRate(0.01))
func NewCluster(system System, b int, opts ...ClusterOption) (*Cluster, error) {
	return sim.NewCluster(system, b, opts...)
}

// WithSeed seeds the cluster's derived randomness (transport loss/latency
// draws and per-client quorum selection). The default seed is 1.
func WithSeed(seed int64) ClusterOption { return sim.WithSeed(seed) }

// WithDropRate makes the network lossy: each response is independently
// lost with probability p, observed by clients exactly like a crash.
func WithDropRate(p float64) ClusterOption { return sim.WithDropRate(p) }

// WithLatency assigns each server a fixed round-trip latency drawn
// uniformly from [base, base+jitter], making deadlines and cancellation
// observable.
func WithLatency(base, jitter time.Duration) ClusterOption { return sim.WithLatency(base, jitter) }

// WithTransport installs a custom message layer built by the factory,
// which receives the cluster's servers (wrap NewInMemoryTransport for
// middleware, or route elsewhere entirely).
func WithTransport(f func(servers []*Server) Transport) ClusterOption {
	return sim.WithTransport(f)
}

// WithOptimalStrategy solves the Definition 3.8 load LP at construction
// and installs the optimal access strategy, so the cluster's measured
// load converges to L(Q) itself; Cluster.StrategyLoad reports the LP
// value. The system must be Enumerable or Enumerator.
func WithOptimalStrategy() ClusterOption { return sim.WithOptimalStrategy() }

// WithSessionBatch sets how many probes a session frame holds before it
// flushes; 1 disables coalescing (the unbatched baseline).
func WithSessionBatch(n int) SessionOption { return sim.WithSessionBatch(n) }

// NewInMemoryTransport returns the stock lossless zero-latency transport
// over the given servers, for wrapping in WithTransport factories.
func NewInMemoryTransport(servers []*Server, seed int64) Transport {
	return sim.NewInMemoryTransport(servers, seed)
}

// NewServer returns a correct replica, for hosting in a WireServer (the
// Cluster constructor builds its own servers; this is for standalone
// daemons). Without options the replica's registers live in a fresh
// volatile Mem engine; with WithStore they are the engine's recovered
// state, and every accepted write is persisted before it is acknowledged.
func NewServer(id int, opts ...ServerOption) *Server { return sim.NewServer(id, opts...) }

// WithStore makes the given storage engine the server's registers:
// recovered state is served from construction, every accepted write is
// persisted before it is acknowledged, and a Restart fault replays the
// engine's crash-recovery path.
func WithStore(st Store) ServerOption { return sim.WithStore(st) }

// WithStores backs every server of a cluster with a storage engine from
// the factory, called once per server id; return (nil, nil) to leave a
// server on the default volatile engine. The cluster owns the engines it builds and closes
// them in Cluster.Close.
func WithStores(factory func(id int) (Store, error)) ClusterOption {
	return sim.WithStores(factory)
}

// NewMemStore returns the volatile storage engine: a concurrency-safe
// keyed map with last-writer-wins merge. Reopen wipes it — a restart
// over a memory engine models a server with amnesia.
func NewMemStore() Store { return store.NewMem() }

// OpenDiskStore opens (or creates) the durable engine rooted at dir: an
// append-only CRC-checksummed WAL with group commit, periodic snapshots
// with log truncation, and recovery that replays snapshot plus WAL tail,
// tolerating a torn or corrupt final record.
func OpenDiskStore(dir string, opts ...DiskOption) (*DiskStore, error) {
	return store.Open(dir, opts...)
}

// WithFsync controls whether the durable engine fsyncs each group
// commit (default true). Disabling it trades crash durability of the
// last few records for throughput.
func WithFsync(on bool) DiskOption { return store.WithFsync(on) }

// NewWireServer returns a TCP daemon hosting the given replicas, keyed by
// global server index. Start it with ListenAndServe or Serve; stop it
// with Shutdown (graceful) or Close.
func NewWireServer(replicas map[int]*Server, opts ...WireServerOption) *WireServer {
	return wire.NewServer(replicas, opts...)
}

// DialWire returns a Transport that routes each probe over TCP to the
// address hosting that server (global index → "host:port"). Connections
// are pooled per address, pipelined (many concurrent operations share one
// socket, matched by request ID), and re-established automatically; an
// unreachable server answers Response{OK: false}, the same suspicion
// signal a crash produces, so quorum re-selection works unchanged. Plug
// it into a cluster with
//
//	tr, err := bqs.DialWire(routes)
//	cluster, err := bqs.NewCluster(sys, b,
//	    bqs.WithTransport(func([]*bqs.Server) bqs.Transport { return tr }))
func DialWire(routes map[int]string, opts ...WireDialOption) (*WireClient, error) {
	return wire.Dial(routes, opts...)
}

// NewMetricsRegistry returns an empty registry. Pass it to
// WithStoreMetrics (durable stores), WithWireMetrics (wire client) and
// WithWireServerMetrics (wire daemon); the same registry may back any
// number of layers at once.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WithStoreMetrics instruments a durable store: WAL appends and bytes,
// fsync batches (count and records-per-fsync histogram), snapshots and
// recovery time.
func WithStoreMetrics(reg *MetricsRegistry) DiskOption { return store.WithMetrics(reg) }

// WithWireMetrics instruments a wire client: frames and bytes by
// direction, ops per batch frame, and dial successes and failures.
func WithWireMetrics(reg *MetricsRegistry) WireDialOption { return wire.WithMetrics(reg) }

// WithWireServerMetrics is WithWireMetrics for the daemon side, plus a
// live open-connections gauge.
func WithWireServerMetrics(reg *MetricsRegistry) WireServerOption {
	return wire.WithServerMetrics(reg)
}
