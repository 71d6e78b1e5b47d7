package sim

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bqs/internal/obs"
	"bqs/internal/store"
)

// Op identifies a protocol message. The [MR98a] register protocol needs
// exactly three: collect timestamps (the first phase of a write), read the
// register, and store a tagged value.
type Op int

// Protocol operations.
const (
	// OpReadTimestamps asks a server for the timestamp of its current
	// tagged value, and only that, so the writer can pick a timestamp
	// greater than any it sees. The reply's Value.Value is empty.
	OpReadTimestamps Op = iota + 1
	// OpRead asks a server for its current tagged value on behalf of a
	// reader.
	OpRead
	// OpWrite asks a server to store Request.Value.
	OpWrite
)

// String names the operation for logs and errors.
func (o Op) String() string {
	switch o {
	case OpReadTimestamps:
		return "read-timestamps"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Request is a protocol message addressed to one server. Key names the
// register the operation targets; the zero value (DefaultKey) is the
// single-register key the original blocking API uses.
type Request struct {
	Op       Op
	Key      string      // register the operation targets
	ReaderID int         // client id, for OpReadTimestamps and OpRead
	Value    TaggedValue // payload, for OpWrite
}

// Response is a server's answer. OK = false means the server was
// unresponsive (crashed, or its reply was lost in transit); clients treat
// that exactly like a crash and re-select quorums around it. Value carries
// the answer to OpRead, and to OpReadTimestamps its timestamp alone.
type Response struct {
	OK    bool
	Value TaggedValue
}

// Transport delivers protocol messages to servers. Implementations must be
// safe for concurrent use by many client goroutines and must honor ctx:
// once the context is done, Invoke returns promptly with ctx.Err(). The
// built-in transport checks ctx once per phase, at its start; after that
// only a modelled latency's sleep notices it.
//
// A non-nil error aborts the client operation outright (cancellation,
// deadline, or a transport-level failure); server unresponsiveness is NOT
// an error — report it with Response{OK: false} so clients can suspect the
// server and retry with a different quorum.
type Transport interface {
	Invoke(ctx context.Context, server int, req Request) (Response, error)
}

// PhaseTransport is the optional fast path a Transport can offer a quorum
// phase: send req to every member in one call and write member k's reply
// to out[k] (len(out) == len(members)), returning once every slot is
// answered. The contract mirrors Invoke — an unresponsive member is
// Response{OK: false} in its slot, and the error return is reserved for
// aborts, after which out must be left alone. A Cluster uses it for every
// phase that does not go through a Session's batcher, so a transport that
// can issue a whole phase from the caller's goroutine spares the cluster a
// goroutine per member.
type PhaseTransport interface {
	Transport
	InvokePhase(ctx context.Context, members []int, req Request, out []Response) error
}

// BatchItem is one operation of a batched transport frame, addressed to
// one server. A frame may carry items for different servers — over the
// wire that means different replicas of the same shard share one frame,
// and the receiving shard fans the items across its replicas.
type BatchItem struct {
	Server int
	Req    Request
}

// BatchTransport is the optional fast path a Transport can offer the
// session batcher: deliver a whole frame of operations in one call, with
// responses aligned index-by-index with items. The contract mirrors
// Invoke — unresponsiveness is Response{OK: false} per item (a dead
// destination fails the whole frame that way, fast, as a unit), and the
// error return is reserved for aborts. A Session puts its batcher only in
// front of a transport that has it.
type BatchTransport interface {
	Transport
	InvokeBatch(ctx context.Context, items []BatchItem) ([]Response, error)
}

// BatchGrouper is the optional coalescing hint a Transport can offer the
// session batcher: GroupOf returns a stable identifier of the frame a
// probe to the given server can share — the address's index for a
// sharded TCP transport, so probes to different replicas of one shard
// ride one frame. Without it the batcher groups per server, which is
// always correct.
type BatchGrouper interface {
	GroupOf(server int) int
}

// FrameCoster is the optional economics hint a Transport can offer the
// session layer: WorthBatching reports whether coalescing probes into
// frames actually amortizes a per-frame cost (a TCP round trip, a
// modelled latency sleep). When a transport says no, a Session issues
// probes directly instead of queueing them behind the batcher — with no
// frame cost to amortize, the queue's hand-off and flush wakeups are pure
// overhead (the measured in-memory regression: batch=32 at 0.70× of
// batch=1). Transports that do not implement the interface are assumed
// worth batching.
type FrameCoster interface {
	WorthBatching() bool
}

// memTransport is the built-in Transport: direct in-memory delivery to the
// cluster's servers, with optional message loss (dropRate) and a fixed
// per-server round-trip latency drawn at construction time.
type memTransport struct {
	// state holds the server and latency tables behind one atomic pointer:
	// every probe of every concurrent client reads them, and a live resize
	// (Cluster.Reconfigure growing or shrinking the universe) swaps them,
	// so the hot path must not serialize on a lock.
	state atomic.Pointer[memState]

	latBase, latJitter time.Duration // resize() draws new servers' latency from these

	// dropRate is the loss probability, fixed at construction. The common
	// case is a lossless network, and dropped() sits on every probe of
	// every concurrent client, so the zero-rate path takes no lock. Only
	// when the rate is positive is the rng (which is not
	// concurrency-safe) taken under mu.
	dropRate float64

	mu  sync.Mutex // guards rng; taken when dropRate > 0 and by resize
	rng *rand.Rand

	// probe is the cluster's bqs_quorum_probe_seconds, nil without
	// WithMetrics: the transport times its own phases' probes.
	probe *obs.Histogram
}

// memState is one epoch's view of the in-memory network: the servers and
// their modelled round-trip delays, index-aligned.
type memState struct {
	servers []*Server
	latency []time.Duration // per-server round-trip delay; nil when zero
}

// newMemTransport builds the in-memory transport. When base or jitter is
// positive, each server's round-trip latency is drawn once, uniformly from
// [base, base+jitter], modelling a heterogeneous fleet.
func newMemTransport(servers []*Server, seed int64, dropRate float64, base, jitter time.Duration) *memTransport {
	t := &memTransport{
		latBase:   base,
		latJitter: jitter,
		dropRate:  dropRate,
		rng:       rand.New(rand.NewSource(seed)),
	}
	t.state.Store(&memState{})
	t.resize(servers)
	return t
}

// resize swaps in a new server table at an epoch cutover. Servers
// retained across the resize (same index) keep their modelled latency —
// a resize does not reshuffle the surviving fleet's geography — and
// added servers draw fresh delays from the same distribution. In-flight
// probes that loaded the old state finish against the old table.
func (t *memTransport) resize(servers []*Server) {
	st := &memState{servers: servers}
	if t.latBase > 0 || t.latJitter > 0 {
		st.latency = make([]time.Duration, len(servers))
		kept := copy(st.latency, t.state.Load().latency)
		t.mu.Lock()
		for i := kept; i < len(servers); i++ {
			st.latency[i] = t.latBase
			if t.latJitter > 0 {
				st.latency[i] += time.Duration(t.rng.Int63n(int64(t.latJitter) + 1))
			}
		}
		t.mu.Unlock()
	}
	t.state.Store(st)
}

// NewInMemoryTransport returns the transport NewCluster installs by
// default, minus loss and latency: lossless, instantaneous delivery to the
// given servers. It is exported so WithTransport factories can wrap the
// stock behavior with middleware (tracing, fault proxies, counters).
func NewInMemoryTransport(servers []*Server, seed int64) Transport {
	return newMemTransport(servers, seed, 0, 0, 0)
}

// dropped rolls the message-loss dice. Lock-free, and inlined, when the
// network is lossless.
func (t *memTransport) dropped() bool { return t.dropRate > 0 && t.lose() }

// lose draws one loss roll under mu.
func (t *memTransport) lose() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rng.Float64() < t.dropRate
}

// Invoke delivers req to the given server, sleeping out the server's
// modelled latency (interruptible by ctx) and losing the reply with the
// configured drop probability: a phase of one member.
func (t *memTransport) Invoke(ctx context.Context, server int, req Request) (Response, error) {
	var out [1]Response
	err := t.InvokePhase(ctx, []int{server}, req, out[:])
	return out[0], err
}

// InvokePhase implements PhaseTransport on the caller's goroutine, with
// one ctx check and one server-table load. Members are called in order
// or, under a latency model, each at its arrival time (the phase's start
// plus its round trip), ties in member order, sleeping to each on one
// timer: round trips overlap as parallel probes' would, and timer slack
// does not add up. A reached member rolls for loss, then is served
// (stage); the pending commits are waited on last (awaitCommits). With
// telemetry on, each member's bqs_quorum_probe_seconds sample runs from
// the phase's start to its reply; a staged write's commit wait is the
// phase's.
func (t *memTransport) InvokePhase(ctx context.Context, members []int, req Request, out []Response) error {
	select { // Done takes no lock, where Err takes the context's mutex
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	st := t.state.Load()
	var order []int // member slots in arrival order; nil without a latency model
	var start time.Time
	if st.latency != nil {
		order = st.arrivals(members)
	}
	if order != nil || t.probe != nil {
		start = time.Now()
	}
	var timer *time.Timer
	var commits []*store.Commit
	for n := range members {
		k := n
		if order != nil {
			k = order[n]
			var err error
			if timer, err = sleepUntil(ctx, timer, start.Add(st.latencyOf(members[k]))); err != nil {
				return err
			}
		}
		i := members[k]
		if i < 0 || i >= len(st.servers) {
			return fmt.Errorf("sim: transport: server %d out of range [0,%d)", i, len(st.servers))
		}
		if t.dropped() {
			out[k] = Response{OK: false}
		} else {
			var err error
			if commits, err = stage(st.servers[i], req, out, k, commits); err != nil {
				return err
			}
		}
		if t.probe != nil {
			t.probe.ObserveDuration(time.Since(start))
		}
	}
	awaitCommits(out, commits)
	return nil
}

// InvokeBatch implements BatchTransport: the frame pays ONE round trip —
// the slowest destination's modelled latency — and one loss roll (a lost
// frame loses every reply in it), which is exactly the economics that make
// session batching worthwhile. Its items are then served and waited on as
// a phase's members are (stage, awaitCommits).
func (t *memTransport) InvokeBatch(ctx context.Context, items []BatchItem) ([]Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := t.state.Load()
	var worst time.Duration
	for _, it := range items {
		if it.Server < 0 || it.Server >= len(st.servers) {
			return nil, fmt.Errorf("sim: transport: server %d out of range [0,%d)", it.Server, len(st.servers))
		}
		worst = max(worst, st.latencyOf(it.Server))
	}
	if _, err := sleepUntil(ctx, nil, time.Now().Add(worst)); err != nil {
		return nil, err
	}
	out := make([]Response, len(items))
	if t.dropped() {
		return out, nil // whole frame lost: every item reads unresponsive
	}
	var commits []*store.Commit
	for k, it := range items {
		var err error
		if commits, err = stage(st.servers[it.Server], it.Req, out, k, commits); err != nil {
			out[k] = Response{OK: false}
		}
	}
	awaitCommits(out, commits)
	return out, nil
}

// stage serves req at s into out[k]: a read in full, a write staged
// (Server.StageRequest), its pending commit put in commits[k], a slice
// made by the first slot that must wait. Staging every write before
// waiting on any lets writes share a group commit's wait.
func stage(s *Server, req Request, out []Response, k int, commits []*store.Commit) ([]*store.Commit, error) {
	var c *store.Commit
	var err error
	if req.Op == OpWrite {
		out[k], c, err = s.StageRequest(req)
	} else {
		out[k], err = s.HandleRequest(req)
	}
	if c != nil {
		if commits == nil {
			commits = make([]*store.Commit, len(out))
		}
		commits[k] = c
	}
	return commits, err
}

// awaitCommits waits on each pending commit in turn and NACKs the slots
// whose commit failed: nothing is acked before it is durable.
func awaitCommits(out []Response, commits []*store.Commit) {
	for k, c := range commits {
		if c.Wait() != nil {
			out[k] = Response{OK: false}
		}
	}
}

// GroupOf implements BatchGrouper: in-memory delivery has no per-server
// framing cost, so every server shares one group and a session wave
// flushes as a single frame — the batcher's bookkeeping is paid once per
// wave instead of once per server. (The frame still sleeps the slowest
// member's latency and rolls loss once, like a real shard frame would.)
func (t *memTransport) GroupOf(int) int { return 0 }

// WorthBatching implements FrameCoster: in-memory delivery only has a
// per-frame cost worth amortizing when round-trip latency is modelled —
// a lossless, instantaneous map call gains nothing from queueing behind
// the batcher's flusher.
func (t *memTransport) WorthBatching() bool { return t.state.Load().latency != nil }

// latencyOf returns the server's modelled round-trip delay, zero for a
// server the table lacks.
func (st *memState) latencyOf(server int) time.Duration {
	if server < 0 || server >= len(st.latency) {
		return 0
	}
	return st.latency[server]
}

// arrivals returns the slots of members in arrival order: by modelled
// round trip, ties in member order.
func (st *memState) arrivals(members []int) []int {
	order := make([]int, len(members))
	for k := range order {
		order[k] = k
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(st.latencyOf(members[a]), st.latencyOf(members[b]))
	})
	return order
}

// sleepUntil waits until at, interruptibly by ctx, on timer, which it
// makes on first need and returns for the next wait.
func sleepUntil(ctx context.Context, timer *time.Timer, at time.Time) (*time.Timer, error) {
	d := time.Until(at)
	if d <= 0 {
		return timer, nil
	}
	if timer == nil {
		timer = time.NewTimer(d)
	} else {
		timer.Reset(d)
	}
	select {
	case <-ctx.Done():
		timer.Stop()
		return timer, ctx.Err()
	case <-timer.C:
		return timer, nil
	}
}
