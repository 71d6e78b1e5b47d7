package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"bqs/internal/core"
	"bqs/internal/measures"
	"bqs/internal/obs"
	"bqs/internal/store"
)

// config collects the NewCluster functional options.
type config struct {
	seed      int64
	dropRate  float64
	latBase   time.Duration
	latJitter time.Duration
	transport func(servers []*Server) Transport
	optimal   bool
	stores    func(id int) (store.Store, error)
	metrics   *obs.Registry
}

// strategyEnumLimit caps how many quorums WithOptimalStrategy will
// materialize at construction; past it the LP would dominate startup
// anyway.
const strategyEnumLimit = 1 << 17

// Option configures a Cluster at construction time.
type Option func(*config) error

// WithSeed seeds every source of randomness the cluster derives: the
// transport's drop/latency rng and each client's quorum-selection rng
// (client i draws from a stream determined by seed and i; the same
// per-client stream drives strategy sampling when WithOptimalStrategy
// installs a strategy-backed picker, so strategy runs are reproducible
// under the same discipline as uniform ones). The default seed is 1.
func WithSeed(seed int64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithDropRate makes the network lossy: every response is independently
// lost with probability p, which clients observe exactly like a crash
// (and handle by suspecting the server and re-selecting quorums). Use
// modest rates; suspected servers are only rehabilitated when suspicion
// exhausts the quorum space, so a very lossy network degenerates into
// retry churn, as a real fail-stop detector would.
func WithDropRate(p float64) Option {
	return func(c *config) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("sim: drop rate %g outside [0,1]", p)
		}
		c.dropRate = p
		return nil
	}
}

// WithLatency gives each server a fixed round-trip latency drawn uniformly
// from [base, base+jitter] when the cluster is built, modelling a
// heterogeneous fleet. Probes sleep out the latency (interruptibly — a
// done context aborts the wait), so deadlines and cancellation become
// observable in tests and benchmarks.
func WithLatency(base, jitter time.Duration) Option {
	return func(c *config) error {
		if base < 0 || jitter < 0 {
			return fmt.Errorf("sim: negative latency (base %v, jitter %v)", base, jitter)
		}
		c.latBase, c.latJitter = base, jitter
		return nil
	}
}

// WithTransport installs a custom Transport built by the given factory,
// which receives the cluster's freshly constructed servers (wrap them, or
// ignore them and route elsewhere). Overrides WithDropRate and WithLatency:
// loss and latency become the custom transport's business.
func WithTransport(f func(servers []*Server) Transport) Option {
	return func(c *config) error {
		if f == nil {
			return errors.New("sim: nil transport factory")
		}
		c.transport = f
		return nil
	}
}

// WithOptimalStrategy solves the Definition 3.8 load LP (measures.Load)
// at construction and installs the optimal access strategy, so measured
// load can converge to L(Q) itself rather than the uniform strategy's
// load. The system must list (core.Enumerable) or materialize
// (core.Enumerator) its quorums; the list is enumerated once per epoch and
// cached in the picker. Under suspicion the strategy is conditioned on
// the live set: weights renormalize over quorums disjoint from the
// suspected servers, falling back to uniform among survivors when all
// surviving weight is zero.
func WithOptimalStrategy() Option {
	return func(c *config) error {
		c.optimal = true
		return nil
	}
}

// WithStores attaches a storage engine to every server: the factory is
// called once per server id and its engine is installed via WithStore,
// so writes persist before acking and the Restart behavior runs real
// crash recovery. The Cluster owns the engines it built — Close releases
// them. A factory returning (nil, nil) leaves that server on NewServer's
// default store.Mem.
func WithStores(factory func(id int) (store.Store, error)) Option {
	return func(c *config) error {
		if factory == nil {
			return errors.New("sim: nil store factory")
		}
		c.stores = factory
		return nil
	}
}

// Cluster is a set of servers fronted by a b-masking quorum system. It is
// safe for any number of concurrent clients: load bookkeeping is atomic
// and striped by client id, server behavior is an atomic read, and all
// shared randomness lives behind the transport.
//
// Everything an epoch owns — system, servers, picker, strategy, load
// accounting, the drain gate — lives in the epochState behind cur;
// Reconfigure swaps it atomically at a cutover. The fields on Cluster
// itself are epoch-invariant: b (reconfiguration never changes the
// masking bound), the transport, seeds and factories.
type Cluster struct {
	b         int
	transport Transport
	mem       *memTransport // non-nil when the built-in transport is in use
	seed      int64
	optimal   bool // re-solve the load LP for each epoch's system

	// phase serves a whole phase in one call, when the transport is a
	// PhaseTransport (the built-in one is).
	phase func(ctx context.Context, members []int, req Request, out []Response) error

	// cur is the current epoch; every operation and every scrape reads
	// it with one atomic load.
	cur atomic.Pointer[epochState]

	// reconfigMu serializes Reconfigure calls; the data plane never
	// takes it.
	reconfigMu sync.Mutex

	// storeFactory and stores track the engines the cluster built
	// through WithStores, by server id, so a resize can attach engines
	// to new servers and Close/retire can release exactly the ones it
	// owns.
	storeFactory func(id int) (store.Store, error)
	storeMu      sync.Mutex
	stores       map[int]store.Store

	// retired accumulates the load counters of retired epochs so the
	// telemetry counters stay monotonic across cutovers.
	retired atomic.Pointer[retiredTotals]

	// met holds the pre-resolved telemetry instruments; zero (met.on
	// false, all instruments nil) without WithMetrics.
	met clusterMetrics
}

// NewCluster builds a cluster with one server per universe element. b is
// the masking bound the protocol should defend (usually the system's
// MaskingBound). Behavior is customized with functional options:
//
//	NewCluster(sys, b, WithSeed(42), WithDropRate(0.01), WithLatency(time.Millisecond, time.Millisecond))
func NewCluster(system core.System, b int, opts ...Option) (*Cluster, error) {
	if b < 0 {
		return nil, fmt.Errorf("sim: masking bound %d must be non-negative", b)
	}
	if m, ok := system.(core.Masking); ok && m.MaskingBound() < b {
		return nil, fmt.Errorf("sim: system %s masks only %d < requested b=%d",
			system.Name(), m.MaskingBound(), b)
	}
	cfg := config{seed: 1}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	c := &Cluster{
		b:            b,
		seed:         cfg.seed,
		optimal:      cfg.optimal,
		storeFactory: cfg.stores,
		stores:       make(map[int]store.Store),
	}
	c.retired.Store(&retiredTotals{})
	n := system.UniverseSize()
	servers := make([]*Server, n)
	for i := range servers {
		var err error
		if servers[i], err = c.buildServer(i); err != nil {
			c.Close()
			return nil, err
		}
	}
	st := newEpochState()
	st.system, st.b, st.servers = system, b, servers
	st.load = newLoadCounters(n)
	if err := c.installSelection(st); err != nil {
		c.Close()
		return nil, err
	}
	c.cur.Store(st)
	if cfg.transport != nil {
		c.transport = cfg.transport(servers)
	} else {
		c.mem = newMemTransport(servers, cfg.seed, cfg.dropRate, cfg.latBase, cfg.latJitter)
		c.transport = c.mem
	}
	if pt, ok := c.transport.(PhaseTransport); ok {
		c.phase = pt.InvokePhase
	}
	if cfg.metrics != nil {
		c.initMetrics(cfg.metrics)
	}
	return c, nil
}

// buildServer constructs one server, attaching a storage engine from
// the WithStores factory when one is configured. Engines are tracked by
// id so Close and epoch retirement release exactly what the cluster
// built.
func (c *Cluster) buildServer(id int) (*Server, error) {
	var sopts []ServerOption
	if c.storeFactory != nil {
		st, err := c.storeFactory(id)
		if err != nil {
			return nil, fmt.Errorf("sim: store for server %d: %w", id, err)
		}
		if st != nil {
			c.storeMu.Lock()
			c.stores[id] = st
			c.storeMu.Unlock()
			sopts = append(sopts, WithStore(st))
		}
	}
	return NewServer(id, sopts...), nil
}

// installSelection resolves the epoch's quorum-selection state: the
// uniform picker by default, a strategy-backed picker when the cluster
// runs -strategy optimal (the load LP is then re-solved against
// st.system — this is how a reconfiguration re-derives L(Q) for the new
// epoch's system).
func (c *Cluster) installSelection(st *epochState) error {
	st.picker = core.NewUniformPicker(st.system)
	st.stratLoad = math.NaN()
	if !c.optimal {
		return nil
	}
	en, err := core.AsEnumerable(st.system, strategyEnumLimit)
	if err != nil {
		return fmt.Errorf("sim: strategy-backed selection: %w", err)
	}
	_, strategy, err := measures.Load(en)
	if err != nil {
		return fmt.Errorf("sim: optimal strategy: %w", err)
	}
	p, err := core.NewStrategyPicker(en, strategy)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	st.picker, st.stratLoad = p, p.InducedLoad()
	return nil
}

// Close releases the storage engines the cluster built through
// WithStores (a no-op for memory-only clusters). Callers that injected
// servers through WithTransport keep ownership of whatever those servers
// hold.
func (c *Cluster) Close() error {
	var first error
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	for id, st := range c.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
		delete(c.stores, id)
	}
	return first
}

// StrategyLoad returns L_w(Q), the load induced by the current epoch's
// strategy — the LP optimum L(Q) under WithOptimalStrategy — or NaN under
// uniform selection. It is the analytic target the measured PeakLoad
// converges to under failure-free balanced traffic.
func (c *Cluster) StrategyLoad() float64 { return c.cur.Load().stratLoad }

// System returns the quorum system the cluster currently fronts.
func (c *Cluster) System() core.System { return c.cur.Load().system }

// B returns the masking bound b the protocol defends (Definition 3.5).
// Reconfiguration never changes it.
func (c *Cluster) B() int { return c.b }

// N returns the number of servers in the current epoch (the universe
// size of Definition 3.1).
func (c *Cluster) N() int { return len(c.cur.Load().servers) }

// Epoch returns the current configuration epoch (0 until the first
// reconfiguration).
func (c *Cluster) Epoch() uint64 { return c.cur.Load().epoch }

// Server returns server i of the current epoch (for fault injection and
// assertions).
func (c *Cluster) Server(i int) *Server { return c.cur.Load().servers[i] }

// InjectFault sets the behavior of the given servers.
func (c *Cluster) InjectFault(behavior Behavior, ids ...int) error {
	servers := c.cur.Load().servers
	for _, id := range ids {
		if id < 0 || id >= len(servers) {
			return fmt.Errorf("sim: server id %d out of range [0,%d)", id, len(servers))
		}
		servers[id].SetBehavior(behavior)
	}
	return nil
}

// Flip switches the behavior of one in-memory server — the faults
// package's Flipper seam — synchronized by the server's own mutex, so
// flips land safely under any number of concurrent clients.
func (c *Cluster) Flip(_ context.Context, server int, behavior Behavior) error {
	return c.InjectFault(behavior, server)
}

// FaultCounts returns (crashed, byzantine) tallies.
func (c *Cluster) FaultCounts() (crashed, byzantine int) {
	for _, s := range c.cur.Load().servers {
		switch b := s.Behavior(); {
		case b == Crashed:
			crashed++
		case b.IsByzantine():
			byzantine++
		}
	}
	return crashed, byzantine
}

// LoadProfile returns the empirical per-server access frequencies observed
// since construction (or the last ResetLoadProfile): entry i is the
// fraction of quorum accesses that touched server i. Under balanced
// fault-free traffic the maximum entry converges to the load induced by
// the system's selection strategy, which Theorem 4.1 lower-bounds by
// max{(2b+1)/c, c/n} — this is the live-traffic counterpart of
// measures.EmpiricalLoad's offline sampling.
func (c *Cluster) LoadProfile() []float64 {
	load := &c.cur.Load().load
	out := make([]float64, load.n)
	phases := load.phases()
	if phases == 0 {
		return out
	}
	for i := range out {
		out[i] = float64(load.accesses(i)) / float64(phases)
	}
	return out
}

// PeakLoad returns the maximum entry of LoadProfile — the empirical load
// L(Q) of Definition 3.8 as measured from live traffic.
func (c *Cluster) PeakLoad() float64 {
	max := 0.0
	for _, f := range c.LoadProfile() {
		if f > max {
			max = f
		}
	}
	return max
}

// Phases returns how many quorum accesses have been charged in the
// current epoch since its cutover (or the last ResetLoadProfile) — the
// denominator of LoadProfile, exposed so the timing adversary can key
// its behavior flips to the protocol phase the fleet is around.
func (c *Cluster) Phases() int64 { return c.cur.Load().load.phases() }

// ResetLoadProfile zeroes the current epoch's access counters (e.g.
// after a warm-up).
func (c *Cluster) ResetLoadProfile() { c.cur.Load().load.reset() }

// invoke routes one probe through the transport, timing it into the
// per-server RTT histogram when instrumented.
func (c *Cluster) invoke(ctx context.Context, server int, req Request) (Response, error) {
	if !c.met.on {
		return c.transport.Invoke(ctx, server, req)
	}
	start := time.Now()
	resp, err := c.transport.Invoke(ctx, server, req)
	c.met.probeSeconds.ObserveDuration(time.Since(start))
	return resp, err
}

// invokeBatch routes a whole frame of probes through the transport. The
// phases its items belong to were charged in probeQuorum — batching
// changes how many frames travel, never how many quorum accesses are
// charged, so the measured load stays the Definition 3.8 quantity. Only a
// Session's batcher calls it, and NewSession builds one only over a
// BatchTransport.
func (c *Cluster) invokeBatch(ctx context.Context, items []BatchItem) ([]Response, error) {
	bt := c.transport.(BatchTransport)
	if !c.met.on {
		return bt.InvokeBatch(ctx, items)
	}
	// One sample per wire round trip: the frame's RTT is every item's RTT,
	// so charging it once keeps the histogram a distribution over network
	// waits, not over items.
	c.met.batchOps.Observe(float64(len(items)))
	start := time.Now()
	out, err := bt.InvokeBatch(ctx, items)
	c.met.probeSeconds.ObserveDuration(time.Since(start))
	return out, err
}

// probeQuorum sends req to every quorum member and writes member k's reply
// to out[k] (len(out) == len(members)). A phase takes one of two paths:
//   - one call to c.phase, when its probes do not go through a Session's
//     batcher and the transport serves whole phases: the built-in
//     transport's InvokePhase calls the members on the caller's
//     goroutine, each at its modelled arrival time under a latency
//     model, and a wire.Client sends every probe from the caller's
//     goroutine and its read loops fill the slots;
//   - otherwise fanOut, a goroutine per member: the Session batcher
//     (via), or a transport the cluster cannot see through (middleware).
//
// probeQuorum is the one place load is charged: one phase and one access
// per member, into client's stripe, whatever the path. Every path is done
// with out when probeQuorum returns, so the caller may reuse it. The only
// error it returns is a transport failure (typically ctx cancellation or
// expiry); unresponsive servers appear as Response{OK: false}.
func (c *Cluster) probeQuorum(ctx context.Context, client int, members []int, req Request, via Transport, out []Response) error {
	c.cur.Load().load.charge(client, members)
	if !c.met.on {
		return c.probeQuorumUntimed(ctx, members, req, via, out)
	}
	start := time.Now()
	err := c.probeQuorumUntimed(ctx, members, req, via, out)
	c.met.phaseSeconds.ObserveDuration(time.Since(start))
	return err
}

// probeQuorumUntimed is probeQuorum without the fan-out span.
func (c *Cluster) probeQuorumUntimed(ctx context.Context, members []int, req Request, via Transport, out []Response) error {
	if via == nil && c.phase != nil {
		return c.invokePhase(ctx, members, req, out)
	}
	return c.fanOut(ctx, members, out, req, via)
}

// invokePhase hands a whole phase to c.phase. The built-in transport
// times its own probes (memTransport.probe). Over any other, the phase's
// probes share one wait, so with telemetry on each member's
// bqs_quorum_probe_seconds sample is that wait; with it off no clock is
// read.
func (c *Cluster) invokePhase(ctx context.Context, members []int, req Request, out []Response) error {
	if !c.met.on || c.mem != nil {
		return c.phase(ctx, members, req, out)
	}
	start := time.Now()
	err := c.phase(ctx, members, req, out)
	d := time.Since(start)
	for range members {
		c.met.probeSeconds.ObserveDuration(d)
	}
	return err
}

// fanOut probes every member in its own goroutine, writing member k's
// reply to out[k], and returns the first transport error. It serves the
// transports that can only take one probe at a time — middleware, the
// session batcher. It is a function of its own so that
// what the goroutines capture (req above all) moves to the heap only on
// this path.
func (c *Cluster) fanOut(ctx context.Context, members []int, out []Response, req Request, via Transport) error {
	errs := make(chan error, len(members))
	for k, i := range members {
		go func() {
			resp, err := c.probe(ctx, i, req, via)
			out[k] = resp
			errs <- err
		}()
	}
	var first error
	for range members {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// probe sends one probe through via when it is non-nil, else through the
// cluster's own path — a plain call, never a method value, which
// would escape and allocate on every phase.
func (c *Cluster) probe(ctx context.Context, server int, req Request, via Transport) (Response, error) {
	if via != nil {
		return via.Invoke(ctx, server, req)
	}
	return c.invoke(ctx, server, req)
}

// clientRNG derives an independent deterministic random stream for client
// id from the cluster seed.
func (c *Cluster) clientRNG(id int) *rand.Rand {
	// SplitMix64-style odd multiplier keeps nearby ids uncorrelated.
	return rand.New(rand.NewSource(c.seed + (int64(id)+1)*-0x61c8864680b583eb))
}
