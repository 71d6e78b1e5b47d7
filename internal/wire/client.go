package wire

import (
	"bufio"
	"context"
	"fmt"
	"net"
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
	// client announces ahead of its requests, rec the record it last
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

// WithDialTimeout bounds each connection attempt (default 2s).
func WithDialTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) {
		if d > 0 {
			c.dialTimeout = d
		}
	}
}

// WithRedialBackoff sets how long an address stays marked down after a
// failed connection attempt (default 100ms). While it is down, probes to
// its servers answer Response{OK: false} immediately instead of paying
// the dial timeout again, so quorum re-selection stays fast.
func WithRedialBackoff(d time.Duration) DialOption {
	return func(c *dialConfig) {
		if d > 0 {
			c.redialBackoff = d
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

// WithEpochs makes the client epoch-aware: every request frame is
// preceded (when needed) by an announce frame naming the configuration
// epoch the client routed it with, so servers can reject requests built
// against a retired quorum system. A rejection reads as
// Response{OK: false} — the retriable suspicion signal — and onStale is
// called with the shard's current record (zero if the shard has nothing
// installed) so the embedding layer can refresh: re-derive its quorum
// system via the record, then adopt the epoch through InstallEpoch. The
// client deliberately does NOT bump its announced epoch on its own —
// announcing a new epoch while still routing with the old system's
// quorums would let old-shape quorums through the new epoch's gate,
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

// Routes returns a copy of the route table.
func (c *Client) Routes() map[int]string {
	out := make(map[int]string, len(c.routes))
	for id, addr := range c.routes {
		out[id] = addr
	}
	return out
}

// Invoke implements sim.Transport: it routes req to the address hosting
// the given server and waits for the matching response. Unreachable or
// dropped connections answer Response{OK: false}; the error return is
// reserved for aborts (ctx done, closed client, unrouted server).
func (c *Client) Invoke(ctx context.Context, server int, req sim.Request) (sim.Response, error) {
	if err := ctx.Err(); err != nil {
		return sim.Response{}, err
	}
	addr, ok := c.routes[server]
	if !ok {
		return sim.Response{}, fmt.Errorf("wire: no route for server %d", server)
	}
	p, err := c.pool(addr)
	if err != nil {
		return sim.Response{}, err
	}
	resps, err := p.pick().roundTripBatch(ctx, []sim.BatchItem{{Server: server, Req: req}})
	if err != nil {
		return sim.Response{}, err
	}
	return resps[0], nil
}

// InvokeBatch implements sim.BatchTransport: items are grouped by the
// address hosting their servers and each group travels as one batch
// frame. A group whose address is unreachable fails fast AS A UNIT — one
// backoff-gate check for the whole frame, every item answering
// Response{OK: false} — so a dead shard costs one redial-backoff window,
// not one per operation in the batch. Responses align index-by-index
// with items; the error return is reserved for aborts (ctx done, closed
// client, unrouted server).
func (c *Client) InvokeBatch(ctx context.Context, items []sim.BatchItem) ([]sim.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]sim.Response, len(items))
	// The batcher already groups per address, so the common case is one
	// group; the grouping here keeps the contract honest for direct
	// callers.
	type group struct {
		idx   []int
		items []sim.BatchItem
	}
	groups := make(map[string]*group, 1)
	order := make([]string, 0, 1)
	for i, it := range items {
		addr, ok := c.routes[it.Server]
		if !ok {
			return nil, fmt.Errorf("wire: no route for server %d", it.Server)
		}
		g := groups[addr]
		if g == nil {
			g = &group{}
			groups[addr] = g
			order = append(order, addr)
		}
		g.idx = append(g.idx, i)
		g.items = append(g.items, it)
	}
	for _, addr := range order {
		g := groups[addr]
		p, err := c.pool(addr)
		if err != nil {
			return nil, err
		}
		cn := p.pick()
		// Chunk so no frame exceeds the op-count or byte limits; every
		// chunk of a group rides the same connection.
		for start := 0; start < len(g.items); {
			end := chunkEnd(g.items, start)
			resps, err := cn.roundTripBatch(ctx, g.items[start:end])
			if err != nil {
				return nil, err
			}
			for k, r := range resps {
				out[g.idx[start+k]] = r
			}
			start = end
		}
	}
	return out, nil
}

// chunkEnd returns the end index of the largest frame-sized chunk of
// items starting at start: at most MaxBatchOps operations and comfortably
// under the MaxFrame payload bound.
func chunkEnd(items []sim.BatchItem, start int) int {
	bytes := batchHeaderLen
	end := start
	for end < len(items) && end-start < MaxBatchOps {
		sz := reqItemLen(items[end])
		if end > start && bytes+sz > MaxFrame {
			break
		}
		bytes += sz
		end++
	}
	if end == start {
		// A single item too big for any frame: give it its own chunk;
		// roundTripBatch's fitsFrame filter answers it OK: false without
		// ever encoding it.
		end = start + 1
	}
	return end
}

// Flip implements sim.Flipper over the network: it sends a control frame
// to the shard hosting the given server, asking it to switch that replica
// to behavior. This is the remote half of the churn engine — a
// sim.FaultController driving a wire.Client replays its fault schedule
// against a live TCP deployment exactly as it would against an in-memory
// Cluster. The error reports an unreachable shard or a server the
// addressed shard does not host; a schedule driver counts such flips as
// misses and keeps going.
func (c *Client) Flip(ctx context.Context, server int, behavior sim.Behavior) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	addr, ok := c.routes[server]
	if !ok {
		return fmt.Errorf("wire: no route for server %d", server)
	}
	p, err := c.pool(addr)
	if err != nil {
		return err
	}
	ack, err := p.pick().roundTrip(ctx, 1, func(id uint64) ([]byte, error) {
		return AppendControl(nil, id, uint32(server), behavior)
	})
	if err != nil {
		return err
	}
	if !ack.resps[0].OK {
		return fmt.Errorf("wire: flip server %d to %v: shard %s unreachable or not hosting it", server, behavior, addr)
	}
	return nil
}

var _ sim.Flipper = (*Client)(nil)
var _ reconfig.Installer = (*Client)(nil)

// Epoch returns the configuration epoch the client announces ahead of
// its requests: 0 until it adopts a record through InstallEpoch, and
// always 0 for epoch-unaware clients.
func (c *Client) Epoch() uint64 {
	if c.cfg.epoch == nil {
		return 0
	}
	return c.cfg.epoch.Load()
}

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
// subsequent requests announce the new epoch. This is the cutover step
// of Cluster.Reconfigure over a wire transport; its position AFTER the
// drain and BEFORE the epoch publish is what keeps the adoption safe
// (no request routed with the old system ever announces the new epoch).
// Installs are idempotent at the shards, so retries and concurrent
// coordinators converge. Requires an epoch-aware client (WithEpochs).
func (c *Client) InstallEpoch(ctx context.Context, rec reconfig.Record) error {
	if c.cfg.epoch == nil {
		return fmt.Errorf("wire: InstallEpoch on an epoch-unaware client (dial with WithEpochs)")
	}
	if err := rec.Validate(); err != nil {
		return fmt.Errorf("wire: install: %w", err)
	}
	for _, addr := range c.addrs() {
		p, err := c.pool(addr)
		if err != nil {
			return err
		}
		got, err := p.pick().roundTripReconfig(ctx, ReconfigFrame{Kind: ReconfigInstall, Rec: rec})
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
		p, err := c.pool(addr)
		if err != nil {
			return reconfig.Record{}, false, err
		}
		got, err := p.pick().roundTripReconfig(ctx, ReconfigFrame{Kind: ReconfigQuery})
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

func (c *Client) pool(addr string) (*pool, error) {
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
	return p, nil
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

	// wmu serializes socket writes, separately from mu: a blocking flush
	// must not hold the state mutex, or readLoop could not drain responses
	// while the kernel send buffer is full — with both sides stalled on
	// flow control, that is a distributed deadlock.
	wmu sync.Mutex

	// Announce state, guarded by wmu (NOT mu): the connection the last
	// announce preface was written to and the epoch it named. The decision
	// to preface and the write itself must be one critical section, or two
	// racing senders could order a request ahead of the announce that
	// covers it. Comparing annNC against the live connection makes a
	// reconnect re-announce naturally, with no teardown bookkeeping.
	annNC     net.Conn
	announced uint64

	mu         sync.Mutex
	nc         net.Conn
	bw         *bufio.Writer
	nextID     uint64
	pending    map[uint64]*pendingCall
	nextDialAt time.Time     // backoff gate after a failed dial
	dialDone   chan struct{} // non-nil while a goroutine is dialing; closed when done
	closed     bool
}

// pendingCall is one in-flight frame awaiting its reply. The channel is
// buffered so teardown and readLoop never block on an abandoned waiter.
type pendingCall struct {
	done chan reply
	n    int // responses the reply must carry; 0 for a call awaiting a state frame
}

// reply is what a pending call resolves to: the responses of a batchResp
// frame, aligned with the request's items, or the record of a reconfig
// state frame (zero when the shard has nothing installed). A dead
// connection resolves every call to what a crashed peer would have
// answered (downReply).
type reply struct {
	resps   []sim.Response
	rec     reconfig.Record
	stateOK bool // a state frame arrived
}

// downReply is the answer of a crashed peer to a call expecting n
// responses: every one the zero Response (OK: false), and no state.
func downReply(n int) reply { return reply{resps: make([]sim.Response, n)} }

// fail answers the call the way a crashed peer would. Called with the
// conn state mutex held.
func (pc *pendingCall) fail() { pc.done <- downReply(pc.n) }

// errDown is the internal signal that the remote end is unreachable;
// roundTrip translates it into the crashed-peer reply.
var errDown = fmt.Errorf("wire: server down")

// roundTrip sends the frame built by encode (called with the fresh
// request ID under the connection's state mutex) and waits for a reply
// carrying n responses — or, for n = 0, a state frame. An unreachable
// peer, at send time or any time before the answer, is not an error: the
// call resolves to the crashed-peer reply, so dead servers read as
// crashed. The error return is reserved for aborts (ctx done, closed
// client, unencodable frame).
func (cn *conn) roundTrip(ctx context.Context, n int, encode func(id uint64) ([]byte, error)) (reply, error) {
	pc := &pendingCall{done: make(chan reply, 1), n: n}
	id, err := cn.send(ctx, encode, pc)
	if err == errDown {
		return downReply(n), nil
	}
	if err != nil {
		return reply{}, err
	}
	select {
	case got := <-pc.done:
		return got, nil
	case <-ctx.Done():
		cn.forget(id)
		return reply{}, ctx.Err()
	}
}

// roundTripReconfig sends a reconfig install or query frame and waits
// for the shard's state reply; an unreachable shard reads as
// reply{stateOK: false}.
func (cn *conn) roundTripReconfig(ctx context.Context, f ReconfigFrame) (reply, error) {
	return cn.roundTrip(ctx, 0, func(id uint64) ([]byte, error) {
		return AppendReconfig(nil, id, f)
	})
}

// roundTripBatch sends one batch frame and waits for its aligned
// responses. An unreachable peer fails the WHOLE batch fast, as a unit:
// one dial attempt or one backoff-gate check answers every item with
// Response{OK: false} — this is what keeps a dead shard's cost at one
// redial-backoff window instead of one per operation.
func (cn *conn) roundTripBatch(ctx context.Context, items []sim.BatchItem) ([]sim.Response, error) {
	// An item no frame can carry (key or value past the per-item bounds)
	// answers OK: false on its own; it must not poison the frame with an
	// encode error that would fail every innocent operation sharing it.
	out := make([]sim.Response, len(items))
	sendable := make([]sim.BatchItem, 0, len(items))
	idx := make([]int, 0, len(items))
	for i, it := range items {
		if fitsFrame(it) {
			sendable = append(sendable, it)
			idx = append(idx, i)
		}
	}
	if len(sendable) == 0 {
		return out, nil
	}
	cn.cfg.met.batchOps.Observe(float64(len(sendable)))
	got, err := cn.roundTrip(ctx, len(sendable), func(id uint64) ([]byte, error) {
		return AppendBatchRequest(nil, id, sendable)
	})
	if err != nil {
		return nil, err
	}
	for k, r := range got.resps {
		out[idx[k]] = r
	}
	return out, nil
}

// fitsFrame reports whether AppendBatchRequest accepts the item; one that
// fits can always be sent, alone in its frame if need be (MaxValueLen
// leaves room for the longest key).
func fitsFrame(it sim.BatchItem) bool {
	return it.Server >= 0 && len(it.Req.Key) <= MaxKeyLen && len(it.Req.Value.Value) <= MaxValueLen
}

// send ensures the connection is up, registers the pending call, and
// writes the frame built by encode. The write itself happens outside the
// state mutex (under wmu) so responses keep flowing while it blocks.
func (cn *conn) send(ctx context.Context, encode func(id uint64) ([]byte, error), pc *pendingCall) (uint64, error) {
	if err := cn.ensureConn(ctx); err != nil {
		return 0, err
	}
	cn.mu.Lock()
	if cn.closed {
		cn.mu.Unlock()
		return 0, fmt.Errorf("wire: client closed")
	}
	if cn.nc == nil {
		// The connection died between ensureConn and here; treat the
		// servers behind it as down rather than re-dialing in a loop.
		cn.mu.Unlock()
		return 0, errDown
	}
	cn.nextID++
	id := cn.nextID
	frame, err := encode(id)
	if err != nil {
		cn.mu.Unlock()
		return 0, err // unencodable frame (invalid record or behavior): caller bug, abort
	}
	cn.pending[id] = pc
	nc, bw := cn.nc, cn.bw
	cn.mu.Unlock()

	cn.wmu.Lock()
	var werr error
	frames, bytes := 1, len(frame)
	if cn.cfg.epoch != nil {
		// Epoch-aware clients preface the frame with an announce whenever
		// this connection has not yet named the current epoch — on first
		// use, after a reconnect, and after each InstallEpoch adoption.
		if cur := cn.cfg.epoch.Load(); cn.annNC != nc || cn.announced != cur {
			preface, perr := AppendReconfig(nil, 0, ReconfigFrame{Kind: ReconfigAnnounce, Epoch: cur})
			if perr == nil {
				if _, werr = bw.Write(preface); werr == nil {
					cn.annNC, cn.announced = nc, cur
					frames, bytes = frames+1, bytes+len(preface)
				}
			}
		}
	}
	if werr == nil {
		_, werr = bw.Write(frame)
	}
	if werr == nil {
		werr = bw.Flush()
	}
	cn.wmu.Unlock()
	if werr == nil {
		cn.cfg.met.framesOut.Add(int64(frames))
		cn.cfg.met.bytesOut.Add(int64(bytes))
	}
	if werr != nil {
		cn.mu.Lock()
		cn.teardownLocked(nc)
		cn.mu.Unlock()
		// Teardown (ours, or a concurrent one that beat us to it) already
		// answered the pending entry with OK: false if it was still
		// registered; reporting errDown here reads the same to the caller.
		return 0, errDown
	}
	return id, nil
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
		case cn.nc != nil:
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
		cn.nc = nc
		cn.bw = bufio.NewWriter(nc)
		cn.pending = make(map[uint64]*pendingCall)
		go cn.readLoop(nc)
		cn.mu.Unlock()
		return nil
	}
}

// readLoop dispatches response frames to their pending calls until the
// connection dies, then fails whatever is still in flight.
func (cn *conn) readLoop(nc net.Conn) {
	br := bufio.NewReader(nc)
	var buf []byte
	for {
		frame, err := ReadFrame(br, buf)
		if err != nil {
			break
		}
		buf = frame
		if len(frame) == 0 {
			break
		}
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
				cn.mu.Lock()
				pc, ok := cn.pending[rid]
				if ok && pc.n == 0 {
					delete(cn.pending, rid)
					cn.mu.Unlock()
					pc.done <- reply{rec: rf.Rec, stateOK: true} // buffered; never blocks
					continue
				}
				cn.mu.Unlock()
				if ok {
					goto done // a batch or control call answered with a state frame
				}
			case ReconfigWrongEpoch:
				// The shard refused the request because this connection's
				// announced epoch is not its own. The rejection answers the
				// call the retriable way — Response{OK: false}, never an
				// abort — and the embedding layer hears about the shard's
				// record so it can refresh.
				cn.cfg.met.wrongEpoch.Inc()
				cn.mu.Lock()
				pc, ok := cn.pending[rid]
				if ok {
					delete(cn.pending, rid)
					pc.fail()
				}
				cn.mu.Unlock()
				if h := cn.cfg.onStale; h != nil {
					h(rf.Rec)
				}
			default:
				goto done // announce/install/query from a server: protocol error
			}
		case tagBatchResponse:
			id, resps, err := DecodeBatchResponse(frame)
			if err != nil {
				goto done
			}
			cn.mu.Lock()
			pc, ok := cn.pending[id]
			if ok && len(resps) == pc.n {
				delete(cn.pending, id)
				cn.mu.Unlock()
				pc.done <- reply{resps: resps} // buffered; never blocks
				continue
			}
			cn.mu.Unlock()
			if ok {
				goto done // kind or count mismatch: protocol error
			}
			// Unknown id: a late response for a forgotten call; drop it.
		default:
			goto done // unknown frame kind: protocol error
		}
	}
done:
	cn.mu.Lock()
	cn.teardownLocked(nc)
	cn.mu.Unlock()
}

// teardownLocked closes nc and, if it is still the active connection,
// answers every pending call with OK: false so waiters treat the remote
// servers as crashed. Called with cn.mu held.
func (cn *conn) teardownLocked(nc net.Conn) {
	nc.Close()
	if cn.nc != nc {
		return
	}
	cn.nc = nil
	cn.bw = nil
	for id, pc := range cn.pending {
		delete(cn.pending, id)
		pc.fail()
	}
}

// forget drops a pending entry after ctx cancellation; a late response
// for it is discarded by readLoop.
func (cn *conn) forget(id uint64) {
	cn.mu.Lock()
	delete(cn.pending, id)
	cn.mu.Unlock()
}

func (cn *conn) shutdown() {
	cn.mu.Lock()
	cn.closed = true
	if cn.nc != nil {
		cn.teardownLocked(cn.nc)
	}
	cn.mu.Unlock()
}
