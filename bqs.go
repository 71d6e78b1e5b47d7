package bqs

import (
	"math/rand"
	"time"

	"bqs/internal/bitset"
	"bqs/internal/compose"
	"bqs/internal/core"
	"bqs/internal/faults"
	"bqs/internal/measures"
	"bqs/internal/obs"
	"bqs/internal/projective"
	"bqs/internal/reconfig"
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
	// list on demand (Threshold, Grid, MGrid, RT).
	Enumerator = core.Enumerator
	// Picker is the quorum-selection seam live clusters drive: uniform
	// survivor selection by default, strategy-backed sampling under
	// WithStrategy/WithOptimalStrategy.
	Picker = core.Picker
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
	// FailureModel is the heterogeneous, correlated crash model: a
	// per-server probability vector plus correlated failure domains.
	FailureModel = measures.FailureModel
	// Domain is one correlated failure domain of a FailureModel (rack,
	// power feed, availability zone): all members crash together.
	Domain = measures.Domain

	// Threshold is the ℓ-of-n system (Table 2 baseline / RT block).
	Threshold = systems.Threshold
	// Grid is the [MR98a] masking grid baseline.
	Grid = systems.Grid
	// MGrid is the multi-grid construction of §5.1.
	MGrid = systems.MGrid
	// RT is the recursive threshold construction of §5.2.
	RT = systems.RT
	// BoostFPP is the boosted finite projective plane of §6.
	BoostFPP = systems.BoostFPP
	// MPath is the multi-path construction of §7.
	MPath = systems.MPath
	// MPathEdge is the square-lattice bond variant mentioned at the end
	// of §7 (servers on edges, dual-path TB quorums).
	MPathEdge = systems.MPathEdge

	// Cluster is a simulated server fleet behind a masking quorum system,
	// safe for any number of concurrent clients.
	Cluster = sim.Cluster
	// Client reads and writes the replicated variable via quorums; its
	// context-aware operations fan probes out to quorum members in
	// parallel and honor deadlines and cancellation. Cluster.NewClient
	// returns one running the masking protocol,
	// Cluster.NewDisseminationClient one running the [MR98a]
	// self-verifying-data protocol, which needs only IS ≥ b+1.
	Client = sim.Client
	// Authenticator simulates the signature scheme dissemination relies on.
	Authenticator = sim.Authenticator
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

	// Fault injection lives in internal/faults, which reaches a fleet only
	// through Flipper and LoadSource.

	// FaultEvent is one entry of a fault timeline: at offset At, server
	// Server switches to Behavior.
	FaultEvent = faults.FaultEvent
	// FaultSchedule is a validated, time-sorted fault timeline — the
	// deterministic core of the churn engine.
	FaultSchedule = faults.FaultSchedule
	// ChurnConfig is the seeded stochastic churn model (exponential
	// up/down alternation per server); its Schedule method pre-generates a
	// reproducible FaultSchedule.
	ChurnConfig = faults.ChurnConfig
	// FaultController replays a FaultSchedule against a Flipper in real
	// time while a workload runs.
	FaultController = faults.FaultController
	// Flipper applies behavior flips to servers: Cluster implements it
	// in-memory, WireClient over TCP (flip items).
	Flipper = faults.Flipper
	// ChurnGroup is one heterogeneous slice of the churn model: rate
	// overrides for its servers, or — when Correlated — a failure domain
	// that flips all its members together.
	ChurnGroup = faults.ChurnGroup
	// Adversary corrupts up to B servers through a Flipper, re-choosing
	// victims live per its scheduling strategy.
	Adversary = faults.Adversary
	// AdversaryConfig shapes an Adversary (kind, budget, behavior,
	// re-targeting interval).
	AdversaryConfig = faults.AdversaryConfig
	// AdversaryKind names a victim-selection strategy: random, targeted
	// (heaviest-loaded servers), or timing (phase-keyed behavior flips).
	AdversaryKind = faults.AdversaryKind
	// LoadSource exposes live per-server access frequencies; Cluster
	// satisfies it, and the targeted adversary re-aims off it.
	LoadSource = faults.LoadSource

	// Store is the pluggable storage engine behind a Server: a keyed map
	// of timestamped records with last-writer-wins merge. NewMemStore
	// returns the volatile engine, OpenDiskStore the durable WAL +
	// snapshot engine with true crash-recovery.
	Store = store.Store
	// StoreRecord is one durable register version: key, value and the
	// (Seq, Writer) timestamp that orders it.
	StoreRecord = store.Record
	// DiskOption configures OpenDiskStore (fsync policy, snapshot
	// threshold).
	DiskOption = store.DiskOption
	// DiskStore is the durable engine: an append-only CRC-checksummed WAL
	// with group commit, periodic snapshots, and recovery that tolerates a
	// torn tail.
	DiskStore = store.Disk
	// RecoveryStats describes what a DiskStore replayed at open.
	RecoveryStats = store.RecoveryStats
	// ServerOption configures NewServer (durable storage).
	ServerOption = sim.ServerOption

	// WireServer is a TCP daemon hosting a shard of sim servers; see
	// NewWireServer.
	WireServer = wire.Server
	// WireClient is a Transport that carries probes over TCP with
	// connection pooling, request pipelining and automatic reconnect; see
	// DialWire.
	WireClient = wire.Client
	// WireDialOption configures DialWire.
	WireDialOption = wire.DialOption

	// ReconfigRecord is one epoch's configuration: the quorum
	// construction, universe size and masking bound a cluster runs.
	// Cluster.Reconfigure installs one; epoch-aware wire clients and
	// daemons agree on the current one through the epoch gate.
	ReconfigRecord = reconfig.Record
	// ReconfigReport summarizes a completed Cluster.Reconfigure: the
	// record installed, drain and total durations, keys handed off.
	ReconfigReport = sim.ReconfigReport
)

// Sentinel errors.
var (
	// ErrNoLiveQuorum reports that every quorum intersects the failed set.
	ErrNoLiveQuorum = core.ErrNoLiveQuorum
	// ErrNotEnumerable reports a system that can neither list nor
	// materialize its quorums (required by WithStrategy and
	// WithOptimalStrategy).
	ErrNotEnumerable = core.ErrNotEnumerable
	// ErrNoCandidate reports a read that found no value vouched by b+1
	// servers (possible under concurrency or excessive faults).
	ErrNoCandidate = sim.ErrNoCandidate
	// ErrRetriesExhausted reports that live quorums kept containing
	// unresponsive servers beyond the client's retry budget.
	ErrRetriesExhausted = sim.ErrRetriesExhausted
	// ErrSessionClosed reports a session operation issued after Close.
	ErrSessionClosed = sim.ErrSessionClosed
	// ErrWireServerClosed is returned by WireServer.Serve after Shutdown
	// or Close.
	ErrWireServerClosed = wire.ErrServerClosed
)

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

// Adversary scheduling strategies for NewAdversary.
const (
	// AdversaryRandom corrupts a fresh uniform b-subset each tick — the
	// oblivious baseline.
	AdversaryRandom = faults.AdversaryRandom
	// AdversaryTargeted corrupts the servers carrying the most live
	// access weight (Cluster.LoadProfile) — the worst-case adversary the
	// availability analysis must survive.
	AdversaryTargeted = faults.AdversaryTargeted
	// AdversaryTiming holds its victims but flips their behavior between
	// ByzantineStale and ByzantineEquivocate keyed to the protocol phase.
	AdversaryTiming = faults.AdversaryTiming
)

// Protocol message types, for custom Transport implementations.
const (
	OpReadTimestamps = sim.OpReadTimestamps
	OpRead           = sim.OpRead
	OpWrite          = sim.OpWrite
)

// Keyed data plane constants.
const (
	// DefaultKey is the register the single-object Client.Read and
	// Client.Write operate on; the keyed API is a superset of that
	// original data plane.
	DefaultKey = sim.DefaultKey
)

// WithSessionBatch sets how many probes a session frame holds before it
// flushes; 1 disables coalescing (the unbatched baseline).
func WithSessionBatch(n int) SessionOption { return sim.WithSessionBatch(n) }

// NewSet returns an empty Set sized for a universe of n servers.
func NewSet(n int) Set { return bitset.New(n) }

// SetOf returns a Set holding the given server indices.
func SetOf(elems ...int) Set { return bitset.FromSlice(elems) }

// NewExplicit builds and verifies an explicit quorum system
// (Definition 3.1) over the universe {0,…,n−1}.
func NewExplicit(name string, n int, quorums []Set) (*ExplicitSystem, error) {
	return core.NewExplicit(name, n, quorums)
}

// NewThreshold returns the ℓ-of-n threshold system (requires 2ℓ > n).
func NewThreshold(n, l int) (*Threshold, error) { return systems.NewThreshold(n, l) }

// NewMaskingThreshold returns the b-masking Threshold of [MR98a]: quorums
// of size ⌈(n+2b+1)/2⌉ over n ≥ 4b+1 servers.
func NewMaskingThreshold(n, b int) (*Threshold, error) { return systems.NewMaskingThreshold(n, b) }

// NewMajority returns the ⌊n/2⌋+1-of-n majority system [Tho79].
func NewMajority(n int) (*Threshold, error) { return systems.NewMajority(n) }

// NewDisseminationThreshold returns the [MR98a] dissemination threshold
// (quorums of ⌈(n+b+1)/2⌉, intersections ≥ b+1) for self-verifying data.
func NewDisseminationThreshold(n, b int) (*Threshold, error) {
	return systems.NewDisseminationThreshold(n, b)
}

// NewAuthenticator returns the simulated signature registry used by
// Cluster.NewDisseminationClient.
func NewAuthenticator() *Authenticator { return sim.NewAuthenticator() }

// NewGrid returns the b-masking grid of [MR98a] on a d×d universe.
func NewGrid(d, b int) (*Grid, error) { return systems.NewGrid(d, b) }

// NewMGrid returns the M-Grid construction of §5.1 on a d×d universe:
// quorums of √(b+1) rows plus √(b+1) columns, optimal load.
func NewMGrid(d, b int) (*MGrid, error) { return systems.NewMGrid(d, b) }

// NewRT returns the recursive threshold RT(k,ℓ) of depth h (§5.2).
func NewRT(k, l, h int) (*RT, error) { return systems.NewRT(k, l, h) }

// NewBoostFPP returns boostFPP(q, b) = FPP(q) ∘ Thresh(3b+1 of 4b+1) (§6);
// q must be a prime power.
func NewBoostFPP(q, b int) (*BoostFPP, error) { return systems.NewBoostFPP(q, b) }

// NewMPath returns the M-Path construction of §7 on a d×d triangulated
// grid: quorums of √(2b+1) disjoint left-right plus √(2b+1) disjoint
// top-bottom paths; optimal in both load and crash probability.
func NewMPath(d, b int) (*MPath, error) { return systems.NewMPath(d, b) }

// NewMPathEdge returns the square-lattice edge variant of M-Path: servers
// on the bonds of a d×d grid, dual top-bottom paths (end of §7).
func NewMPathEdge(d, b int) (*MPathEdge, error) { return systems.NewMPathEdge(d, b) }

// NewCrumblingWall returns the crumbling-wall regular system of [PW97b]
// with the given row widths (explicit; small walls only).
func NewCrumblingWall(widths []int, limit int) (*ExplicitSystem, error) {
	return systems.NewCrumblingWall(widths, limit)
}

// NewWheel returns the wheel system of [NW98] over n servers.
func NewWheel(n int) (*ExplicitSystem, error) { return systems.NewWheel(n) }

// CrashPolynomial returns the exact kill counts N_k of the system
// (F_p = Σ_k N_k p^k (1−p)^{n−k}); evaluate with EvalCrashPolynomial.
func CrashPolynomial(sys Enumerable) ([]float64, error) { return measures.CrashPolynomial(sys) }

// EvalCrashPolynomial evaluates a CrashPolynomial at probability p.
func EvalCrashPolynomial(counts []float64, p float64) float64 {
	return measures.EvalCrashPolynomial(counts, p)
}

// NewFPP returns the lines of the projective plane PG(2,q) as an explicit
// regular quorum system (the optimal-load regular system of [NW98]).
func NewFPP(q int) (*ExplicitSystem, error) {
	plane, err := projective.New(q)
	if err != nil {
		return nil, err
	}
	return systems.NewFPP(plane)
}

// Compose returns the lazy composition S∘R of Definition 4.6; parameters
// multiply per Theorem 4.7.
func Compose(outer, inner System) *Composite { return compose.New(outer, inner) }

// ComposeExplicit materializes S∘R for exact analysis of small systems.
func ComposeExplicit(outer, inner Enumerable, limit int) (*ExplicitSystem, error) {
	return compose.Explicit(outer, inner, limit)
}

// Boost applies the §6 boosting technique to any quorum system:
// Boost(S, b) = S ∘ Thresh(3b+1 of 4b+1) is b-masking.
func Boost(regular System, b int) (*Composite, error) { return systems.Boost(regular, b) }

// Resilience returns f = MT(Q) − 1 (Definition 3.4).
func Resilience(p Parameterized) int { return core.Resilience(p) }

// MaskingBound applies Corollary 3.7: b = min{MT−1, (IS−1)/2}.
func MaskingBound(p Parameterized) int { return core.MaskingBoundFromParams(p) }

// IsBMasking checks the Lemma 3.6 conditions for a given b.
func IsBMasking(p Parameterized, b int) bool { return core.IsBMasking(p, b) }

// Load solves the Definition 3.8 linear program exactly for an explicit
// system, returning L(Q) and an optimal access strategy.
func Load(sys Enumerable) (float64, *Strategy, error) { return measures.Load(sys) }

// NewStrategy validates and wraps an access-strategy weight vector
// (non-negative, summing to 1), aligned with an explicit quorum list.
func NewStrategy(weights []float64) (*Strategy, error) { return core.NewStrategy(weights) }

// UniformStrategy returns the strategy giving each of m quorums weight
// 1/m — load-optimal exactly for fair systems (Proposition 3.9).
func UniformStrategy(m int) *Strategy { return core.UniformStrategy(m) }

// AsEnumerable returns a materialized view of sys (itself when already
// Enumerable, its Enumerate(limit) when an Enumerator), or
// ErrNotEnumerable.
func AsEnumerable(sys System, limit int) (Enumerable, error) {
	return core.AsEnumerable(sys, limit)
}

// LoadFair applies Proposition 3.9 (L = c/n for fair systems).
func LoadFair(sys *ExplicitSystem) (float64, error) { return measures.LoadFair(sys) }

// EmpiricalLoad estimates the busiest-server frequency of the system's
// built-in strategy over the given number of fault-free picks; a failed
// pick is returned as an error.
func EmpiricalLoad(sys System, trials int, rng *rand.Rand) (float64, error) {
	return measures.EmpiricalLoad(sys, trials, rng)
}

// LoadLowerBound is Theorem 4.1: L(Q) ≥ max{(2b+1)/c, c/n}.
func LoadLowerBound(n, b, c int) float64 { return measures.LoadLowerBound(n, b, c) }

// GlobalLoadLowerBound is Corollary 4.2: L(Q) ≥ √((2b+1)/n).
func GlobalLoadLowerBound(n, b int) float64 { return measures.GlobalLoadLowerBound(n, b) }

// CrashProbabilityExact computes F_p (Definition 3.10) by enumerating all
// failure configurations (universe ≤ 24 servers).
func CrashProbabilityExact(sys Enumerable, p float64) (float64, error) {
	return measures.CrashProbabilityExact(sys, p)
}

// CrashProbabilityMC estimates F_p by Monte Carlo for systems of any size.
func CrashProbabilityMC(sys System, p float64, trials int, rng *rand.Rand) (MCResult, error) {
	return measures.CrashProbabilityMC(sys, p, trials, rng)
}

// CrashProbabilityExactModel computes F exactly under a full
// FailureModel (per-server vector plus correlated domains); the model's
// independent failure sources are capped at 24.
func CrashProbabilityExactModel(sys Enumerable, m FailureModel) (float64, error) {
	return measures.CrashProbabilityExactModel(sys, m)
}

// CrashProbabilityMCModel estimates F under a full FailureModel by Monte
// Carlo — the estimator for models with too many sources to enumerate.
func CrashProbabilityMCModel(sys System, m FailureModel, trials int, rng *rand.Rand) (MCResult, error) {
	return measures.CrashProbabilityMCModel(sys, m, trials, rng)
}

// UniformFailureModel returns the paper's i.i.d. model: every one of n
// servers crashes independently with probability p.
func UniformFailureModel(n int, p float64) FailureModel { return measures.UniformModel(n, p) }

// ParsePVector parses the CLI form of a per-server crash probability
// vector: a bare float (uniform), n comma-separated floats (positional),
// or ranged "lo-hi:p"/"i:p" entries over a "*:p" default.
func ParsePVector(spec string, n int) ([]float64, error) { return measures.ParsePVector(spec, n) }

// ParseDomains parses the CLI form of correlated failure domains:
// comma-separated members:probability entries with '+'-joined ranges,
// e.g. "0-3:0.05,4-7:0.05,8+12:0.2".
func ParseDomains(spec string, n int) ([]Domain, error) { return measures.ParseDomains(spec, n) }

// CrashLowerBoundMT is Proposition 4.3: F_p ≥ p^MT.
func CrashLowerBoundMT(mt int, p float64) float64 { return measures.CrashLowerBoundMT(mt, p) }

// CrashLowerBoundMasking is Proposition 4.4: F_p ≥ p^(c−2b).
func CrashLowerBoundMasking(c, b int, p float64) float64 {
	return measures.CrashLowerBoundMasking(c, b, p)
}

// CrashLowerBoundB is Proposition 4.5: F_p ≥ p^(b+1) when
// MT ≤ (IS+1)/2 (check with Prop45Applies).
func CrashLowerBoundB(b int, p float64) float64 { return measures.CrashLowerBoundB(b, p) }

// Prop45Applies reports whether Proposition 4.5's precondition holds.
func Prop45Applies(p Parameterized) bool { return measures.Prop45Applies(p) }

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

// WithStrategy drives quorum selection from the given access strategy
// (Definition 3.8) instead of uniform survivor selection; the weights
// must align with the system's quorum list (the system must be
// Enumerable or Enumerator). Under suspicion the strategy renormalizes
// over surviving quorums, falling back to uniform when all surviving
// weight is zero.
func WithStrategy(st *Strategy) ClusterOption { return sim.WithStrategy(st) }

// WithOptimalStrategy solves the Definition 3.8 load LP at construction
// and installs the optimal access strategy, so the cluster's measured
// load converges to L(Q) itself; Cluster.StrategyLoad reports the LP
// value. The system must be Enumerable or Enumerator.
func WithOptimalStrategy() ClusterOption { return sim.WithOptimalStrategy() }

// WithDeterministic probes quorum members sequentially from the calling
// goroutine even where a probe can block (by default only phases that
// cannot block run inline, the rest in parallel), restoring the exactly
// reproducible single-threaded mode.
func WithDeterministic() ClusterOption { return sim.WithDeterministic() }

// NewFaultSchedule validates fault events (non-negative offsets and
// server indices, known behaviors) and returns them as a timeline sorted
// stably by offset.
func NewFaultSchedule(events []FaultEvent) (*FaultSchedule, error) {
	return faults.NewFaultSchedule(events)
}

// ParseFaultSchedule parses the CLI timeline form
// "100ms:3:crashed,250ms:0-2:byz-fabricate,600ms:3:correct" —
// comma-separated at:servers:behavior entries with inclusive server
// ranges.
func ParseFaultSchedule(spec string) (*FaultSchedule, error) { return faults.ParseFaultSchedule(spec) }

// ParseChurn parses the stochastic churn spec — one or more
// ';'-separated clauses: a base "mtbf=300ms,mttr=100ms[,down=<behavior>]
// [,servers=lo-hi]" followed by optional heterogeneous groups
// ("servers=4-7,mtbf=1s" rate overrides, "domain=0-3" correlated failure
// domains) — into a ChurnConfig.
func ParseChurn(spec string) (ChurnConfig, error) { return faults.ParseChurn(spec) }

// ParseAdversary parses the adversary spec: a strategy name (random,
// targeted, timing) optionally followed by b=<budget>,
// behavior=<mode>, interval=<duration>, seed=<int>.
func ParseAdversary(spec string) (AdversaryConfig, error) { return faults.ParseAdversary(spec) }

// NewAdversary builds an adversarial Byzantine scheduler over an
// n-server fleet: it corrupts up to cfg.B servers through f, re-choosing
// victims live per cfg.Kind. loads may be nil except for the targeted
// kind (pass the Cluster, which is its own LoadSource); run it with
// Adversary.Run alongside the workload.
func NewAdversary(cfg AdversaryConfig, f Flipper, loads LoadSource, n int) (*Adversary, error) {
	return faults.NewAdversary(cfg, f, loads, n)
}

// NewFaultController binds a fault schedule to the Flipper (a Cluster, or
// a WireClient for remote deployments) that will apply it; run it with
// FaultController.Run alongside the workload.
func NewFaultController(f Flipper, s *FaultSchedule) *FaultController {
	return faults.NewFaultController(f, s)
}

// NewInMemoryTransport returns the stock lossless zero-latency transport
// over the given servers, for wrapping in WithTransport factories.
func NewInMemoryTransport(servers []*Server, seed int64) Transport {
	return sim.NewInMemoryTransport(servers, seed)
}

// NewServer returns a correct replica, for hosting in a WireServer (the
// Cluster constructor builds its own servers; this is for standalone
// daemons). Without options the replica starts with empty registers;
// with WithStore it loads its registers from the engine's recovered
// state and persists every accepted write before acknowledging it.
func NewServer(id int, opts ...ServerOption) *Server { return sim.NewServer(id, opts...) }

// WithStore backs the server's registers with the given storage engine:
// recovered state is loaded at construction, every accepted write is
// persisted before it is acknowledged, and a Restart fault replays the
// engine's crash-recovery path.
func WithStore(st Store) ServerOption { return sim.WithStore(st) }

// WithStores backs every server of a cluster with a storage engine from
// the factory, called once per server id; return (nil, nil) to leave a
// server memory-only. The cluster owns the engines it builds and closes
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

// WithWirePoolSize sets how many TCP connections DialWire keeps per
// address (default 1; pipelining usually makes one enough).
func WithWirePoolSize(n int) WireDialOption { return wire.WithPoolSize(n) }

// ParseRoutes parses "0-8=hostA:7000,9-24=hostB:7000" into the route
// table DialWire consumes.
func ParseRoutes(spec string) (map[int]string, error) { return wire.ParseRoutes(spec) }

// ParseIDRange parses "0-24" (or "7") into the inclusive list of global
// server indices it names.
func ParseIDRange(spec string) ([]int, error) { return wire.ParseIDRange(spec) }

// CheckRouteCoverage verifies the route table addresses every server of
// an n-element universe.
func CheckRouteCoverage(routes map[int]string, n int) error { return wire.CheckCoverage(routes, n) }

// WithWireEpochs makes the dialed client epoch-aware: every request
// frame carries, as its gate, the epoch its quorum was drawn from
// (flips travel ungated), shards reject
// mismatches with a retriable wrongepoch answer, and the client gains
// InstallEpoch/FetchConfig plus the installer seam
// Cluster.Reconfigure drives. onStale, if non-nil, fires with the
// shard's newer record whenever a request is bounced; it must not
// block (it runs on the connection's read loop).
func WithWireEpochs(onStale func(ReconfigRecord)) WireDialOption { return wire.WithEpochs(onStale) }

// ParseReconfigTarget parses a reconfiguration target spec — "kind:N"
// (e.g. "mgrid:36", "threshold:25") or "compose:OUTERxINNER" (e.g.
// "compose:6x6") — into a ReconfigRecord with masking bound b. The
// record's epoch is left zero, meaning "the cluster's next epoch"; the
// target construction is built once to validate the parameters.
func ParseReconfigTarget(spec string, b int) (ReconfigRecord, error) {
	return reconfig.ParseTarget(spec, b)
}

// FabricatedValue is the marker value Byzantine fabricators return in the
// simulation; reads must never surface it while faults stay within b.
const FabricatedValue = sim.FabricatedValue

// Observability: the telemetry plane. One MetricsRegistry threads through
// every layer — cluster (per-op spans, per-server load gauges, the L(Q)
// and F_p(Q) companions), wire client and server (frames, bytes, batch
// sizes, dials, version mix) and disk stores (WAL appends, fsync batches,
// snapshots, recovery time) — and ServeMetrics exposes it over HTTP as
// Prometheus text, expvar-style JSON and net/http/pprof. Everything is
// optional: without a registry every instrument call is a nil-receiver
// no-op and the hot paths stay allocation-free.
type (
	// MetricsRegistry is the process-wide instrument registry; see
	// NewMetricsRegistry.
	MetricsRegistry = obs.Registry
	// MetricsServer is the HTTP endpoint ServeMetrics starts.
	MetricsServer = obs.Server
	// MetricsHistogram is a fixed-bucket latency/size histogram, exposed
	// so harness counters can hand registry-backed quantiles around.
	MetricsHistogram = obs.Histogram
	// WireServerOption configures NewWireServer (metrics).
	WireServerOption = wire.ServerOption
)

// NewMetricsRegistry returns an empty registry. Pass it to WithMetrics
// (cluster), WithStoreMetrics (durable stores), WithWireMetrics (wire
// client), WithWireServerMetrics (wire daemon) and ServeMetrics; the same
// registry may back any number of layers at once.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WithMetrics instruments a cluster and its clients: per-operation spans
// (quorum pick, per-phase probe fan-out, retries), per-server live load
// gauges next to the static L(Q) companions, and the epoch/crash
// counters behind the live F_p(Q) gauge.
func WithMetrics(reg *MetricsRegistry) ClusterOption { return sim.WithMetrics(reg) }

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

// ServeMetrics binds addr (e.g. "127.0.0.1:9100") and serves the
// registry: /metrics (Prometheus text), /vars (JSON), /events (recent
// annotated events), /debug/vars (expvar) and /debug/pprof/*. Returns
// the running server; its Addr method reports the bound address (useful
// with port 0) and Close stops it.
func ServeMetrics(addr string, reg *MetricsRegistry) (*MetricsServer, error) {
	return obs.Serve(addr, reg)
}
