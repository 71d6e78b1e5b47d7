package wire

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bqs/internal/obs"
	"bqs/internal/reconfig"
	"bqs/internal/sim"
)

// DialOption configures a Client.
type DialOption func(*dialConfig)

type dialConfig struct {
	poolSize      int
	dialTimeout   time.Duration
	redialBackoff time.Duration
	met           *wireMetrics

	// Epoch awareness (WithEpochs): epoch is the configuration epoch the
	// client gates its requests at, rec the record it last
	// adopted, onStale the callback for wrongepoch rejections. All nil
	// for epoch-unaware clients, whose connections are served ungated.
	epoch   *atomic.Uint64
	rec     *atomic.Pointer[reconfig.Record]
	onStale func(reconfig.Record)
}

// WithPoolSize sets how many TCP connections the client keeps per address
// (default 1). Requests are pipelined, so one connection already carries
// any number of concurrent operations; extra connections only help when a
// single socket's throughput saturates.
func WithPoolSize(n int) DialOption {
	return func(c *dialConfig) {
		if n > 0 {
			c.poolSize = n
		}
	}
}

// WithMetrics wires the client into an obs.Registry: frames and bytes in
// each direction, batch-frame op counts, and dial outcomes (the redial
// stream of a flapping shard). A nil registry is a no-op.
func WithMetrics(reg *obs.Registry) DialOption {
	return func(c *dialConfig) {
		if reg != nil {
			c.met = newWireMetrics(reg, "client")
		}
	}
}

// WithEpochs makes the client epoch-aware: every request frame carries,
// as its gate, the configuration epoch the client routed it with, so
// servers can reject requests built against a retired quorum system (a
// Flip is never gated). A rejection reads as
// Response{OK: false} — the retriable suspicion signal — and onStale is
// called with the shard's current record (zero if the shard has nothing
// installed) so the embedding layer can refresh: re-derive its quorum
// system via the record, then adopt the epoch through InstallEpoch. The
// client deliberately does NOT bump its gate epoch on its own — gating
// at a new epoch while still routing with the old system's quorums
// would let old-shape quorums through the new epoch's gate,
// which is exactly the unsafety the gate exists to stop. onStale may be
// nil; it must not block (it runs on connection read loops).
func WithEpochs(onStale func(reconfig.Record)) DialOption {
	return func(c *dialConfig) {
		c.epoch = new(atomic.Uint64)
		c.rec = new(atomic.Pointer[reconfig.Record])
		c.onStale = onStale
	}
}

// Client is a sim.Transport that carries probes over TCP. Each global
// server index is routed to the address hosting it; per address the
// client keeps a small pool of connections, multiplexing concurrent
// requests over each by request ID. A server whose address cannot be
// reached — connection refused, dial timeout, connection dropped
// mid-flight — answers Response{OK: false}, the same suspicion signal the
// in-memory transport uses for crashed servers, so clients re-select
// quorums around network failures exactly as they do around crashes.
// Connections re-establish automatically on the next probe after the
// redial backoff, so a restarted server rejoins the fleet untouched.
type Client struct {
	routes    map[int]string
	addrGroup map[string]int // stable per-address index, for batch grouping
	cfg       dialConfig

	mu     sync.Mutex
	pools  map[string]*pool
	closed bool
}

var (
	_ sim.Transport      = (*Client)(nil)
	_ sim.PhaseTransport = (*Client)(nil)
	_ sim.BatchTransport = (*Client)(nil)
	_ sim.BatchGrouper   = (*Client)(nil)
)

// Dial validates the route table (global server index → "host:port") and
// returns a Client. Connections are established lazily, on first use per
// address, and re-established as needed; Dial itself does not touch the
// network, so it succeeds even while servers are still starting.
func Dial(routes map[int]string, opts ...DialOption) (*Client, error) {
	if len(routes) == 0 {
		return nil, fmt.Errorf("wire: empty route table")
	}
	m := make(map[int]string, len(routes))
	for id, addr := range routes {
		if id < 0 {
			return nil, fmt.Errorf("wire: negative server index %d in route table", id)
		}
		if addr == "" {
			return nil, fmt.Errorf("wire: empty address for server %d", id)
		}
		m[id] = addr
	}
	cfg := dialConfig{
		poolSize:      1,
		dialTimeout:   2 * time.Second,
		redialBackoff: 100 * time.Millisecond,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.met == nil {
		cfg.met = &wireMetrics{}
	}
	groups := make(map[string]int)
	for _, addr := range m {
		if _, ok := groups[addr]; !ok {
			groups[addr] = len(groups)
		}
	}
	return &Client{
		routes:    m,
		addrGroup: groups,
		cfg:       cfg,
		pools:     make(map[string]*pool),
	}, nil
}

// GroupOf implements sim.BatchGrouper: probes whose servers live at the
// same address may share a frame, so the session batcher coalesces a
// whole shard's traffic — not just one replica's — into each round trip.
func (c *Client) GroupOf(server int) int {
	addr, ok := c.routes[server]
	if !ok {
		return -1 // unrouted servers group together and fail together
	}
	return c.addrGroup[addr]
}

// Invoke implements sim.Transport: it routes req to the address hosting
// the given server and waits for the matching response — a quorum phase
// of one member (InvokePhase). Unreachable or dropped connections answer
// Response{OK: false}; the error return is reserved for aborts (ctx done,
// closed client, unrouted server).
func (c *Client) Invoke(ctx context.Context, server int, req sim.Request) (sim.Response, error) {
	ph := getPhase(len(c.addrGroup))
	members := [1]int{server}
	err := c.runPhase(ctx, ph, members[:], req, ph.one[:])
	resp := ph.one[0]
	putPhase(ph)
	return resp, err
}

// InvokePhase implements sim.PhaseTransport: a whole quorum phase from the
// caller's goroutine. Each member's probe travels as a frame of its own,
// encoded straight into its connection's write buffer, and each
// connection the phase touched is flushed once, after the phase's last
// frame and the flush rule's one yield. Each probe's pending entry points
// at its slot out[k]: the connection's read loop decodes the reply into
// it, and the caller wakes once, when the phase's last slot is answered —
// no goroutine, channel or call object per probe. A member no frame can
// carry, or one whose address is unreachable, answers Response{OK: false}
// as Invoke would; the error return is reserved for aborts (ctx done,
// closed client, unrouted server), after which out is never written
// again.
func (c *Client) InvokePhase(ctx context.Context, members []int, req sim.Request, out []sim.Response) error {
	ph := getPhase(len(c.addrGroup))
	err := c.runPhase(ctx, ph, members, req, out)
	putPhase(ph)
	return err
}

// runPhase is InvokePhase over a phase record the caller got from
// getPhase and puts back once runPhase returns.
func (c *Client) runPhase(ctx context.Context, ph *phase, members []int, req sim.Request, out []sim.Response) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, server := range members {
		if _, ok := c.routes[server]; !ok {
			return fmt.Errorf("wire: no route for server %d", server)
		}
	}
	var gate uint64 // 0: ungated, for epoch-unaware clients
	if c.cfg.epoch != nil {
		gate = c.cfg.epoch.Load() + 1
	}
	for k, server := range members {
		out[k] = sim.Response{} // from admit on, only the read loop writes the slot
		one := [1]sim.BatchItem{{Server: server, Req: req}}
		if !fitsFrame(one[0]) {
			continue // no frame can carry it: unresponsive, not an abort
		}
		addr := c.routes[server]
		g := c.addrGroup[addr]
		cn := ph.conns[g]
		if cn == nil {
			var err error
			if cn, err = c.conn(addr); err != nil {
				ph.forget()
				return err
			}
			ph.conns[g] = cn
		}
		ph.left.Add(1)
		w, id, err := cn.admit(ctx, waiter{slot: &out[k], ph: ph})
		if err != nil {
			ph.left.Add(-1)
			if err == errDown {
				continue
			}
			ph.forget()
			return err
		}
		cn.cfg.met.batchOps.Observe(1)
		if err := w.put(func(dst []byte) []byte {
			dst, _ = appendBatchRequest(dst, id, gate, one[:]) // fitsFrame: always encodes
			return dst
		}); err != nil {
			cn.fail(w) // answers this slot, and every other in flight on cn, OK: false
			continue
		}
		if !slices.Contains(ph.writers, w) {
			ph.writers = append(ph.writers, w)
		}
	}
	if len(ph.writers) > 0 {
		// The flush rule's one yield (see frameWriter), once for the whole
		// phase: concurrent callers get their frames in behind ours.
		ph.writers[0].yield()
	}
	for _, w := range ph.writers {
		if w.flush() != nil {
			w.nc.Close() // the read loop's teardown answers every slot on it OK: false
		}
	}
	if ph.left.Add(-1) == 0 {
		return nil // every slot answered already, or none was sent
	}
	select {
	case <-ph.done:
		return nil
	case <-ctx.Done():
		ph.forget()
		return ctx.Err()
	}
}

// phase is one quorum phase in flight: the countdown of its unanswered
// slots — plus one while the caller is still sending, so that replies
// racing the sends cannot finish the phase early — and the connections it
// uses. Phases are pooled; the reply slots are the caller's, except one,
// Invoke's own.
type phase struct {
	left atomic.Int32
	done chan struct{} // receives once, from whoever answers the last slot

	conns   []*conn        // by address group: the connection this phase uses there
	writers []*frameWriter // each holding some of the phase's frames, to flush once
	one     [1]sim.Response
}

var phasePool = sync.Pool{New: func() any { return &phase{done: make(chan struct{}, 1)} }}

func getPhase(groups int) *phase {
	ph := phasePool.Get().(*phase)
	if cap(ph.conns) < groups {
		ph.conns = make([]*conn, groups)
	}
	ph.conns = ph.conns[:groups]
	ph.left.Store(1)
	return ph
}

// putPhase recycles ph once its phase is over: answered in full, or
// withdrawn by forget, so no read loop can reach it any more.
func putPhase(ph *phase) {
	select {
	case <-ph.done: // the last slot of a forgotten phase was answered before forget
	default:
	}
	clear(ph.conns)
	clear(ph.writers)
	ph.writers = ph.writers[:0]
	phasePool.Put(ph)
}

// answer counts one slot answered, waking the caller at the last.
func (ph *phase) answer() {
	if ph.left.Add(-1) == 0 {
		ph.done <- struct{}{}
	}
}

// forget withdraws every probe of an abandoned phase from its
// connections' pending tables. Slots are only ever written under their
// connection's mutex, so once forget has held each of them in turn, no
// reply — late or racing — can touch the caller's slots or the phase.
func (ph *phase) forget() {
	for _, cn := range ph.conns {
		if cn == nil {
			continue
		}
		cn.mu.Lock()
		for id, wt := range cn.pending {
			if wt.ph == ph {
				delete(cn.pending, id)
			}
		}
		cn.mu.Unlock()
	}
}

// connFor picks a connection to the address hosting the given server.
func (c *Client) connFor(ctx context.Context, server int) (*conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	addr, ok := c.routes[server]
	if !ok {
		return nil, fmt.Errorf("wire: no route for server %d", server)
	}
	return c.conn(addr)
}

// InvokeBatch implements sim.BatchTransport: items are grouped by the
// address hosting their servers and each group travels as one batch frame
// (several when it exceeds a frame's bounds, all on one connection). Every
// frame is sent before the first reply is awaited, so a call spanning
// shards costs the slowest shard's round trip, not their sum. A group
// whose address is unreachable fails fast AS A UNIT — one backoff-gate
// check for the whole frame, every item answering Response{OK: false} —
// so a dead shard costs one redial-backoff window, not one per operation.
// An item no frame can carry (key or value past the per-item bounds)
// answers OK: false alone and never poisons the frame of the others.
// Responses align with items; the error return is reserved for aborts
// (ctx done, closed client, unrouted server).
func (c *Client) InvokeBatch(ctx context.Context, items []sim.BatchItem) ([]sim.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]sim.Response, len(items))
	// The batcher already groups per address, so the common case is one
	// group; the grouping here keeps the contract honest for direct
	// callers.
	groups := make([]struct {
		cn    *conn
		idx   []int
		items []sim.BatchItem
	}, len(c.addrGroup))
	for i, it := range items {
		addr, ok := c.routes[it.Server]
		if !ok {
			return nil, fmt.Errorf("wire: no route for server %d", it.Server)
		}
		if !fitsFrame(it) {
			continue
		}
		g := &groups[c.addrGroup[addr]]
		if g.cn == nil {
			var err error
			if g.cn, err = c.conn(addr); err != nil {
				return nil, err
			}
		}
		g.idx = append(g.idx, i)
		g.items = append(g.items, it)
	}
	var flights []*pendingCall // one per frame sent,
	var dests [][]int          // and where its responses go in out
	var err error
	for _, g := range groups {
		for start := 0; err == nil && start < len(g.items); {
			end := chunkEnd(g.items, start)
			var pc *pendingCall
			if pc, err = g.cn.sendBatch(ctx, g.items[start:end]); err == nil {
				flights, dests = append(flights, pc), append(dests, g.idx[start:end])
			}
			start = end
		}
	}
	// Every frame that left is awaited even after an abort: ctx done or a
	// closed client resolves each of them at once.
	for i, pc := range flights {
		got, aerr := pc.await(ctx)
		if aerr != nil {
			err = aerr
		}
		for k, r := range got.resps {
			out[dests[i][k]] = r
		}
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// chunkEnd returns the end index of the largest frame-sized chunk of
// items starting at start: at most MaxBatchOps operations and under the
// MaxFrame payload bound. Every item fits a frame alone (fitsFrame), so a
// chunk is never empty.
func chunkEnd(items []sim.BatchItem, start int) int {
	bytes := reqHeaderLen
	end := start
	for end < len(items) && end-start < MaxBatchOps {
		sz := reqItemLen(items[end])
		if end > start && bytes+sz > MaxFrame {
			break
		}
		bytes += sz
		end++
	}
	return end
}

// Flip implements faults.Flipper over the network: it sends an ungated frame
// of one flip item to the shard hosting the given server, asking it to
// switch that replica to behavior. This is the remote half of the churn
// engine — a faults.FaultController driving a wire.Client replays its fault schedule
// against a live TCP deployment exactly as it would against an in-memory
// Cluster. The error reports an unreachable shard or a server the
// addressed shard does not host; a schedule driver counts such flips as
// misses and keeps going.
func (c *Client) Flip(ctx context.Context, server int, behavior sim.Behavior) error {
	cn, err := c.connFor(ctx, server)
	if err != nil {
		return err
	}
	one := [1]sim.BatchItem{{Server: server, Req: sim.Request{Op: opFlip, ReaderID: int(behavior)}}}
	pc, err := cn.send(ctx, 1, func(dst []byte, id uint64) ([]byte, error) {
		return AppendBatchRequest(dst, id, one[:]) // ungated: the gate covers data, not faults
	})
	if err != nil {
		return err
	}
	ack, err := pc.await(ctx)
	if err != nil {
		return err
	}
	if !ack.resps[0].OK {
		return fmt.Errorf("wire: flip server %d to %v: shard %s unreachable or not hosting it", server, behavior, cn.addr)
	}
	return nil
}

var _ reconfig.Installer = (*Client)(nil)

// CurrentRecord returns the record the client last adopted; ok is false
// before the first InstallEpoch and on epoch-unaware clients.
func (c *Client) CurrentRecord() (reconfig.Record, bool) {
	if c.cfg.rec == nil {
		return reconfig.Record{}, false
	}
	if p := c.cfg.rec.Load(); p != nil {
		return *p, true
	}
	return reconfig.Record{}, false
}

// InstallEpoch implements reconfig.Installer: the record travels as an
// install frame to every distinct address in the route table, and once
// all shards acknowledge an epoch ≥ rec.Epoch the client adopts it —
// subsequent request frames carry the new epoch in their gate. This is
// the cutover step of Cluster.Reconfigure over a wire transport; its
// position AFTER the drain and BEFORE the epoch publish is what keeps the
// adoption safe (no request routed with the old system is ever gated at
// the new epoch). The last epoch, 2^64−1, has no gate value and is
// refused.
// Installs are idempotent at the shards, so retries and concurrent
// coordinators converge. Requires an epoch-aware client (WithEpochs).
func (c *Client) InstallEpoch(ctx context.Context, rec reconfig.Record) error {
	if c.cfg.epoch == nil {
		return fmt.Errorf("wire: InstallEpoch on an epoch-unaware client (dial with WithEpochs)")
	}
	if err := rec.Validate(); err != nil {
		return fmt.Errorf("wire: install: %w", err)
	}
	if rec.Epoch == math.MaxUint64 {
		return fmt.Errorf("wire: install: epoch %d leaves no gate value", rec.Epoch)
	}
	for _, addr := range c.addrs() {
		cn, err := c.conn(addr)
		if err != nil {
			return err
		}
		got, err := cn.roundTripReconfig(ctx, ReconfigFrame{Kind: ReconfigInstall, Rec: rec})
		if err != nil {
			return err
		}
		if !got.stateOK {
			return fmt.Errorf("wire: install epoch %d: shard %s unreachable", rec.Epoch, addr)
		}
		if got.rec.Epoch < rec.Epoch {
			return fmt.Errorf("wire: install epoch %d: shard %s acked epoch %d", rec.Epoch, addr, got.rec.Epoch)
		}
	}
	for {
		cur := c.cfg.epoch.Load()
		if rec.Epoch < cur {
			return nil // a newer adoption raced us; keep it
		}
		if c.cfg.epoch.CompareAndSwap(cur, rec.Epoch) {
			r := rec
			c.cfg.rec.Store(&r)
			return nil
		}
	}
}

// FetchConfig queries every shard for its current record and returns
// the newest one found — the refresh path for a client told it is
// stale. ok is false when no shard has a record installed; the error
// return is reserved for aborts (ctx done, closed client) — an
// unreachable shard is simply skipped, exactly as quorum probes treat
// it.
func (c *Client) FetchConfig(ctx context.Context) (reconfig.Record, bool, error) {
	var best reconfig.Record
	found := false
	for _, addr := range c.addrs() {
		cn, err := c.conn(addr)
		if err != nil {
			return reconfig.Record{}, false, err
		}
		got, err := cn.roundTripReconfig(ctx, ReconfigFrame{Kind: ReconfigQuery})
		if err != nil {
			return reconfig.Record{}, false, err
		}
		if got.stateOK && got.rec.Epoch >= best.Epoch && got.rec != (reconfig.Record{}) {
			best, found = got.rec, true
		}
	}
	return best, found, nil
}

// addrs returns the distinct addresses of the route table, sorted for
// deterministic fan-out order.
func (c *Client) addrs() []string {
	out := make([]string, 0, len(c.addrGroup))
	for addr := range c.addrGroup {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}

// conn picks a connection from addr's pool, created on first use.
func (c *Client) conn(addr string) (*conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("wire: client closed")
	}
	p, ok := c.pools[addr]
	if !ok {
		p = newPool(addr, &c.cfg)
		c.pools[addr] = p
	}
	return p.pick(), nil
}

// Close tears down every connection. In-flight operations observe
// Response{OK: false}; subsequent Invokes fail.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	pools := c.pools
	c.pools = make(map[string]*pool)
	c.mu.Unlock()
	for _, p := range pools {
		p.close()
	}
	return nil
}

// pool is the fixed set of connections the client keeps to one address.
type pool struct {
	conns []*conn
	next  atomic.Uint64
}

func newPool(addr string, cfg *dialConfig) *pool {
	p := &pool{conns: make([]*conn, cfg.poolSize)}
	for i := range p.conns {
		p.conns[i] = &conn{addr: addr, cfg: cfg}
	}
	return p
}

// pick round-robins across the pool.
func (p *pool) pick() *conn {
	return p.conns[p.next.Add(1)%uint64(len(p.conns))]
}

func (p *pool) close() {
	for _, cn := range p.conns {
		cn.shutdown()
	}
}

// conn is one pipelined connection slot: a TCP connection (re-established
// on demand) plus the table of in-flight requests awaiting responses.
type conn struct {
	addr string
	cfg  *dialConfig

	mu         sync.Mutex
	w          *frameWriter // the live connection, nil while down; its own mutex guards writes
	nextID     uint64
	pending    map[uint64]waiter
	nextDialAt time.Time     // backoff gate after a failed dial
	dialDone   chan struct{} // non-nil while a goroutine is dialing; closed when done
	closed     bool
}

// waiter is what a request ID in flight resolves: a call awaiting a whole
// reply frame, or one slot of a quorum phase, which a single response
// fills. Either is answered exactly once, by whoever deletes it from
// conn.pending — under conn.mu, which is what lets a phase withdraw its
// slots (phase.forget).
type waiter struct {
	call *pendingCall  // a frame sent through send; nil for a phase slot
	slot *sim.Response // the phase slot the response lands in
	ph   *phase
}

// fail answers the waiter the way a crashed peer would: OK: false.
func (wt waiter) fail() {
	if wt.call != nil {
		wt.call.fail()
		return
	}
	*wt.slot = sim.Response{}
	wt.ph.answer()
}

// pendingCall is one in-flight frame awaiting its reply. The channel is
// buffered so teardown and readLoop never block on an abandoned waiter.
// A call resolves exactly once — by whoever deletes it from conn.pending,
// or by send when it never got that far — and is recycled only by the
// goroutine that RECEIVED that reply: a waiter that gave up (ctx done)
// leaves its call to the collector, so a late reply for the forgotten id
// can never land in a recycled call.
type pendingCall struct {
	done chan reply
	cn   *conn
	id   uint64
	n    int // responses the reply must carry; 0 for a call awaiting a state frame
}

var callPool = sync.Pool{New: func() any { return &pendingCall{done: make(chan reply, 1)} }}

// reply is what a pending call resolves to: the responses of a batchResp
// frame, aligned with the request's items, or the record of a reconfig
// state frame (zero when the shard has nothing installed).
type reply struct {
	resps   []sim.Response
	rec     reconfig.Record
	stateOK bool // a state frame arrived
}

// fail answers the call the way a crashed peer would: every response the
// zero Response (OK: false), and no state.
func (pc *pendingCall) fail() { pc.done <- reply{resps: make([]sim.Response, pc.n)} }

// errDown is the internal signal that the remote end is unreachable; send
// translates it into the crashed-peer reply.
var errDown = fmt.Errorf("wire: server down")

// roundTripReconfig sends a reconfig install or query frame and waits
// for the shard's state reply; an unreachable shard reads as
// reply{stateOK: false}.
func (cn *conn) roundTripReconfig(ctx context.Context, f ReconfigFrame) (reply, error) {
	pc, err := cn.send(ctx, 0, func(dst []byte, id uint64) ([]byte, error) {
		return AppendReconfig(dst, id, f)
	})
	if err != nil {
		return reply{}, err
	}
	return pc.await(ctx)
}

// sendBatch sends one batch frame of items that all fit it (fitsFrame,
// chunkEnd), gated at the client's epoch; await returns the aligned
// responses.
func (cn *conn) sendBatch(ctx context.Context, items []sim.BatchItem) (*pendingCall, error) {
	cn.cfg.met.batchOps.Observe(float64(len(items)))
	var gate uint64 // 0: ungated, for epoch-unaware clients
	if cn.cfg.epoch != nil {
		gate = cn.cfg.epoch.Load() + 1
	}
	return cn.send(ctx, len(items), func(dst []byte, id uint64) ([]byte, error) {
		return appendBatchRequest(dst, id, gate, items)
	})
}

// fitsFrame reports whether AppendBatchRequest accepts the item; one that
// fits can always be sent, alone in its frame if need be (MaxValueLen
// leaves room for the longest key).
func fitsFrame(it sim.BatchItem) bool {
	return it.Server >= 0 && int64(it.Server) <= int64(^uint32(0)) && len(it.Req.Key) <= MaxKeyLen && len(it.Req.Value.Value) <= MaxValueLen && !badFlip(it)
}

// await waits for the reply to a call send returned.
func (pc *pendingCall) await(ctx context.Context) (reply, error) {
	select {
	case got := <-pc.done:
		callPool.Put(pc)
		return got, nil
	case <-ctx.Done():
		// A late response for the forgotten id is discarded by readLoop.
		pc.cn.mu.Lock()
		delete(pc.cn.pending, pc.id)
		pc.cn.mu.Unlock()
		return reply{}, ctx.Err()
	}
}

// send ensures the connection is up, registers a pending call expecting n
// responses (n = 0: a state frame) and puts the frame built by encode —
// called with the free tail of the write buffer and the fresh request ID —
// on the connection's frameWriter. An unreachable peer, at send time or
// any time before the answer, is not an error: after one dial attempt or
// backoff-gate check the call resolves to the crashed-peer reply, so dead
// servers read as crashed. The error return is reserved for aborts (ctx
// done, closed client, unencodable frame).
func (cn *conn) send(ctx context.Context, n int, encode func(dst []byte, id uint64) ([]byte, error)) (*pendingCall, error) {
	pc := callPool.Get().(*pendingCall)
	pc.cn, pc.n = cn, n
	w, id, err := cn.admit(ctx, waiter{call: pc})
	if err == errDown {
		pc.fail()
		return pc, nil
	}
	if err != nil {
		callPool.Put(pc)
		return nil, err
	}
	pc.id = id
	werr := w.send(func(dst []byte) []byte {
		dst, err = encode(dst, id)
		return dst
	})
	if err != nil {
		// Unencodable frame (invalid record or behavior): caller bug, abort.
		// The call stays out of the pool — a concurrent teardown may fail it.
		cn.mu.Lock()
		delete(cn.pending, id)
		cn.mu.Unlock()
		return nil, err
	}
	if werr != nil {
		cn.fail(w)
	}
	return pc, nil
}

// admit ensures the connection is up and registers wt under a fresh
// request ID, returning the writer its frame goes on. errDown means the
// address is unreachable, and nothing was registered.
func (cn *conn) admit(ctx context.Context, wt waiter) (*frameWriter, uint64, error) {
	if err := cn.ensureConn(ctx); err != nil {
		return nil, 0, err
	}
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.w == nil {
		// The connection died (or the client closed) between ensureConn
		// and here; read the servers behind it as down, don't re-dial.
		return nil, 0, errDown
	}
	cn.nextID++
	cn.pending[cn.nextID] = wt
	return cn.w, cn.nextID, nil
}

// fail tears down w's connection after a failed write. Teardown (this
// one, or a concurrent one that beat it there) answers every waiter in
// flight on the connection with OK: false.
func (cn *conn) fail(w *frameWriter) {
	cn.mu.Lock()
	cn.teardownLocked(w)
	cn.mu.Unlock()
}

// ensureConn returns once a connection is established (by this goroutine
// or a concurrent one), the address is in redial backoff (errDown), or
// ctx is done. The dial itself runs outside cn.mu so concurrent probes —
// and the response readLoop — are never blocked behind a slow connect;
// they either wait interruptibly on the dialer's completion channel or
// fail fast on the backoff gate.
func (cn *conn) ensureConn(ctx context.Context) error {
	for {
		cn.mu.Lock()
		switch {
		case cn.closed:
			cn.mu.Unlock()
			return fmt.Errorf("wire: client closed")
		case cn.w != nil:
			cn.mu.Unlock()
			return nil
		case cn.dialDone != nil:
			// Another goroutine is dialing; wait for its outcome without
			// holding the mutex, then re-examine the state.
			done := cn.dialDone
			cn.mu.Unlock()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-done:
				continue
			}
		case time.Now().Before(cn.nextDialAt):
			cn.mu.Unlock()
			return errDown
		}
		done := make(chan struct{})
		cn.dialDone = done
		cn.mu.Unlock()

		d := net.Dialer{Timeout: cn.cfg.dialTimeout}
		nc, err := d.DialContext(ctx, "tcp", cn.addr)

		cn.mu.Lock()
		cn.dialDone = nil
		close(done)
		if err != nil {
			// Arm the backoff only for genuine dial failures: a dial cut
			// short by the caller's own ctx says nothing about the address,
			// and must not mark a healthy shard down.
			ctxErr := ctx.Err()
			if ctxErr == nil {
				cn.nextDialAt = time.Now().Add(cn.cfg.redialBackoff)
				cn.cfg.met.dialsErr.Inc()
				cn.cfg.met.reg.Eventf("wire: dial %s failed: %v", cn.addr, err)
			}
			cn.mu.Unlock()
			if ctxErr != nil {
				return ctxErr
			}
			return errDown
		}
		if cn.closed {
			cn.mu.Unlock()
			nc.Close()
			return fmt.Errorf("wire: client closed")
		}
		cn.cfg.met.dialsOK.Inc()
		cn.attachLocked(nc)
		cn.mu.Unlock()
		return nil
	}
}

// attachLocked makes nc the live connection and starts its read loop.
// Called with cn.mu held.
func (cn *conn) attachLocked(nc net.Conn) {
	cn.w = newFrameWriter(nc, cn.cfg.met)
	cn.pending = make(map[uint64]waiter)
	go cn.readLoop(cn.w)
}

// readLoop dispatches response frames to their waiters until the
// connection dies, then fails whatever is still in flight. Batch
// responses are decoded into one scratch slice the loop reuses, and a
// value equal to the last one decoded shares its string (see reuse), so a
// phase slot's reply costs no allocation unless its value is new.
func (cn *conn) readLoop(w *frameWriter) {
	br := bufio.NewReader(w.nc)
	var buf []byte
	var scratch []sim.Response
	var strs reuse
	for {
		frame, err := ReadFrame(br, buf)
		if err != nil {
			break
		}
		buf = frame
		cn.cfg.met.framesIn.Inc()
		cn.cfg.met.bytesIn.Add(int64(len(frame)) + 4) // +4: the length prefix is wire bytes too
		switch frame[0] {
		case tagReconfig:
			rid, rf, err := DecodeReconfig(frame)
			if err != nil {
				goto done
			}
			switch rf.Kind {
			case ReconfigState:
				if !cn.resolve(rid, nil, rf.Rec) {
					goto done
				}
			case ReconfigWrongEpoch:
				// The shard refused the request because its frame's gate
				// names an epoch that is not the shard's. The rejection
				// answers the request the retriable way — Response{OK: false},
				// never an abort — and the embedding layer hears about the
				// shard's record so it can refresh.
				cn.cfg.met.wrongEpoch.Inc()
				cn.mu.Lock()
				wt, ok := cn.pending[rid]
				if ok {
					delete(cn.pending, rid)
					wt.fail()
				}
				cn.mu.Unlock()
				if h := cn.cfg.onStale; h != nil {
					h(rf.Rec)
				}
			default:
				goto done // install/query from a server: protocol error
			}
		case tagBatchResponse:
			id, resps, err := decodeBatchResponse(frame, scratch, &strs)
			if err != nil || !cn.resolve(id, resps, reconfig.Record{}) {
				goto done
			}
			scratch = resps
		default:
			goto done // unknown frame kind: protocol error
		}
	}
done:
	cn.fail(w)
}

// resolve answers the waiter for id with a reply frame: resps for a batch
// response (the read loop's scratch — a phase slot takes its one
// response, a call a copy), or, when resps is empty, the record of a
// state frame. It reports false when the waiter expects another kind or
// count of reply — a protocol error; a reply for an id nobody awaits, a
// late one for a forgotten request, is dropped.
func (cn *conn) resolve(id uint64, resps []sim.Response, rec reconfig.Record) bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	wt, ok := cn.pending[id]
	if !ok {
		return true
	}
	n := 1 // a phase slot takes exactly one response
	if wt.call != nil {
		n = wt.call.n
	}
	if n != len(resps) {
		return false
	}
	delete(cn.pending, id)
	switch {
	case wt.call == nil:
		*wt.slot = resps[0]
		wt.ph.answer()
	case n == 0:
		wt.call.done <- reply{rec: rec, stateOK: true} // buffered; never blocks
	default:
		wt.call.done <- reply{resps: slices.Clone(resps)}
	}
	return true
}

// teardownLocked closes w's connection and, if it is still the live one,
// answers every pending call with OK: false so waiters treat the remote
// servers as crashed. Called with cn.mu held.
func (cn *conn) teardownLocked(w *frameWriter) {
	w.nc.Close()
	if cn.w != w {
		return
	}
	cn.w = nil
	for id, wt := range cn.pending {
		delete(cn.pending, id)
		wt.fail()
	}
}

func (cn *conn) shutdown() {
	cn.mu.Lock()
	cn.closed = true
	if cn.w != nil {
		cn.teardownLocked(cn.w)
	}
	cn.mu.Unlock()
}
