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
// frame and the flush rule's one yield. Each probe's waiter points at its
// slot out[k]: the connection's read loop decodes the reply into it, and
// the caller wakes once, when the phase's last slot is answered — no
// goroutine, channel or call object per probe. A member no frame can
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
	gate := c.gate()
	if req.Op == opFlip {
		gate = 0 // the gate covers data, not faults
	}
	ph.out = out
	var one [1]sim.BatchItem
	encode := func(dst []byte, id uint64) []byte {
		dst, _ = appendBatchRequest(dst, id, gate, one[:]) // fitsFrame: always encodes
		return dst
	}
	for k, server := range members {
		out[k] = sim.Response{} // from put on, only the read loop writes the slot
		one[0] = sim.BatchItem{Server: server, Req: req}
		if !fitsFrame(one[0]) {
			continue // no frame can carry it: unresponsive, not an abort
		}
		if err := ph.put(ctx, c, c.routes[server], waiter{ph: ph, k: k, n: 1}, encode); err != nil {
			return err
		}
	}
	return ph.wait(ctx)
}

// gate is the epoch gate request frames carry: the client's epoch + 1, or
// 0 (ungated) on an epoch-unaware client.
func (c *Client) gate() uint64 {
	if c.cfg.epoch == nil {
		return 0
	}
	return c.cfg.epoch.Load() + 1
}

// phase is every frame one caller has in flight — the probes of a quorum
// phase, the frames of a batch, a flip, or a reconfig frame per shard —
// and the countdown of their unanswered waiters, plus one while the caller
// is still putting frames, so that replies racing the puts cannot finish
// the phase early. Phases are pooled; the reply slots are the caller's,
// except one, Invoke's own.
type phase struct {
	left atomic.Int32
	done chan struct{} // receives once, from whoever answers the last waiter

	out     []sim.Response // the reply slots batch responses fill
	states  []state        // the slots reconfig state replies fill
	conns   []*conn        // by address group: the connection this phase uses there
	writers []*frameWriter // each holding some of the phase's frames, to flush once
	one     [1]sim.Response
}

// state is a shard's answer to a reconfig frame: the record it holds (zero
// when it has none), with ok set once the answer arrived.
type state struct {
	rec reconfig.Record
	ok  bool
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
	case <-ph.done: // the last waiter of a forgotten phase was answered before forget
	default:
	}
	ph.out, ph.states = nil, nil
	clear(ph.conns)
	clear(ph.writers)
	ph.writers = ph.writers[:0]
	phasePool.Put(ph)
}

// put registers wt under a fresh request ID on the phase's connection to
// addr, opened on first use, and encodes its frame — encode gets the free
// tail of the write buffer and the ID — for wait to flush. An address
// that is unreachable, now or at any time before it answers, is not an
// error: wt's slots keep their zero value, so dead servers read as
// crashed. The error return is reserved for aborts (ctx done, closed
// client), after which the phase is withdrawn.
func (ph *phase) put(ctx context.Context, c *Client, addr string, wt waiter, encode func(dst []byte, id uint64) []byte) error {
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
	w, id, err := cn.admit(ctx, wt)
	if err != nil {
		ph.left.Add(-1)
		if err == errDown {
			return nil
		}
		ph.forget()
		return err
	}
	if wt.n > 0 {
		cn.cfg.met.batchOps.Observe(float64(wt.n))
	}
	if err := w.put(id, encode); err != nil {
		cn.fail(w) // answers this waiter, and every other in flight on cn, OK: false
		return nil
	}
	if !slices.Contains(ph.writers, w) {
		ph.writers = append(ph.writers, w)
	}
	return nil
}

// wait sends the phase's frames and parks until they are answered: the
// flush rule's one yield (see frameWriter), once for the whole phase, so
// that concurrent callers get their frames in behind ours; one flush per
// connection the phase wrote to; one wake, at the last answer. If ctx is
// done first, the phase is withdrawn and ctx.Err() returned.
func (ph *phase) wait(ctx context.Context) error {
	if len(ph.writers) > 0 {
		ph.writers[0].yield()
	}
	for _, w := range ph.writers {
		if w.flush() != nil {
			w.nc.Close() // the read loop's teardown answers every waiter on it OK: false
		}
	}
	if ph.left.Add(-1) == 0 {
		return nil // every waiter answered already, or none was put
	}
	select {
	case <-ph.done:
		return nil
	case <-ctx.Done():
		ph.forget()
		return ctx.Err()
	}
}

// answer counts one waiter answered, waking the caller at the last.
func (ph *phase) answer() {
	if ph.left.Add(-1) == 0 {
		ph.done <- struct{}{}
	}
}

// forget withdraws every frame of an abandoned phase from its
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

// InvokeBatch implements sim.BatchTransport: each run of items for one
// address travels as one batch frame (several when it exceeds a frame's
// bounds), all put on one phase, so a call spanning shards costs the
// slowest shard's round trip, not their sum. The batcher sends one address
// group per call; a caller whose items interleave shards pays one frame
// per run. Each frame's replies fill its own run of the result. A run
// whose address is unreachable fails fast AS A UNIT — one backoff-gate
// check per frame, every item answering Response{OK: false} — so a dead
// shard costs one redial-backoff window, not one per operation. An item no
// frame can carry (key or value past the per-item bounds) answers
// OK: false alone and never poisons the frame of the others. Responses
// align with items; the error return is reserved for aborts (ctx done,
// closed client, unrouted server).
func (c *Client) InvokeBatch(ctx context.Context, items []sim.BatchItem) ([]sim.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, it := range items {
		if _, ok := c.routes[it.Server]; !ok {
			return nil, fmt.Errorf("wire: no route for server %d", it.Server)
		}
	}
	out := make([]sim.Response, len(items))
	ph := getPhase(len(c.addrGroup))
	defer putPhase(ph)
	ph.out = out
	gate := c.gate()
	for start := 0; start < len(items); {
		end := c.chunkEnd(items, start)
		if end == start {
			start++ // no frame can carry it: it answers OK: false alone
			continue
		}
		chunk := items[start:end]
		err := ph.put(ctx, c, c.routes[chunk[0].Server], waiter{ph: ph, k: start, n: len(chunk)}, func(dst []byte, id uint64) []byte {
			dst, _ = appendBatchRequest(dst, id, gate, chunk) // chunkEnd: always encodes
			return dst
		})
		if err != nil {
			return nil, err
		}
		start = end
	}
	if err := ph.wait(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// chunkEnd returns the end index of the frame that starts at items[start]:
// the longest run of items for one address that each fit a frame
// (fitsFrame), at most MaxBatchOps of them and under the MaxFrame payload
// bound. The run is empty only when items[start] fits no frame.
func (c *Client) chunkEnd(items []sim.BatchItem, start int) int {
	addr := c.routes[items[start].Server]
	bytes := reqHeaderLen
	end := start
	for end < len(items) && end-start < MaxBatchOps && fitsFrame(items[end]) && c.routes[items[end].Server] == addr {
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
// switch that replica to behavior — a phase of one member, as Invoke. This
// is the remote half of the churn engine — a faults.FaultController
// driving a wire.Client replays its fault schedule against a live TCP
// deployment exactly as it would against an in-memory Cluster. The error
// reports an unreachable shard or a server the addressed shard does not
// host; a schedule driver counts such flips as misses and keeps going.
func (c *Client) Flip(ctx context.Context, server int, behavior sim.Behavior) error {
	req := sim.Request{Op: opFlip, ReaderID: int(behavior)}
	if badFlip(sim.BatchItem{Req: req}) {
		return fmt.Errorf("wire: flip to unknown behavior %d", int(behavior))
	}
	ack, err := c.Invoke(ctx, server, req)
	if err != nil {
		return err
	}
	if !ack.OK {
		return fmt.Errorf("wire: flip server %d to %v: shard %s unreachable or not hosting it", server, behavior, c.routes[server])
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
// install frame to every distinct address in the route table, all in one
// round trip, and once all shards acknowledge an epoch ≥ rec.Epoch the
// client adopts it — subsequent request frames carry the new epoch in
// their gate. This is the cutover step of Cluster.Reconfigure over a wire
// transport; its position AFTER the drain and BEFORE the epoch publish is
// what keeps the adoption safe (no request routed with the old system is
// ever gated at the new epoch). The last epoch, 2^64−1, has no gate value
// and is refused.
// Installs are idempotent at the shards, so retries and concurrent
// coordinators converge; a failed install leaves the client's epoch
// alone, whichever shards installed. Requires an epoch-aware client
// (WithEpochs).
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
	addrs, states, err := c.reconfigRound(ctx, ReconfigFrame{Kind: ReconfigInstall, Rec: rec})
	if err != nil {
		return err
	}
	for k, st := range states {
		if !st.ok {
			return fmt.Errorf("wire: install epoch %d: shard %s unreachable", rec.Epoch, addrs[k])
		}
		if st.rec.Epoch < rec.Epoch {
			return fmt.Errorf("wire: install epoch %d: shard %s acked epoch %d", rec.Epoch, addrs[k], st.rec.Epoch)
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

// FetchConfig queries every shard, all in one round trip, for its current
// record and returns the newest one found — the refresh path for a client
// told it is stale. ok is false when no shard has a record installed; the
// error return is reserved for aborts (ctx done, closed client) — an
// unreachable shard is simply skipped, exactly as quorum probes treat it.
func (c *Client) FetchConfig(ctx context.Context) (reconfig.Record, bool, error) {
	_, states, err := c.reconfigRound(ctx, ReconfigFrame{Kind: ReconfigQuery})
	if err != nil {
		return reconfig.Record{}, false, err
	}
	var best reconfig.Record
	found := false
	for _, st := range states {
		if st.ok && st.rec.Epoch >= best.Epoch && st.rec != (reconfig.Record{}) {
			best, found = st.rec, true
		}
	}
	return best, found, nil
}

// reconfigRound puts f on one phase as a frame to every distinct address
// and returns the addresses, sorted, with each one's state reply; a shard
// that did not answer has ok false.
func (c *Client) reconfigRound(ctx context.Context, f ReconfigFrame) ([]string, []state, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if _, err := AppendReconfig(nil, 0, f); err != nil {
		return nil, nil, err // fails here, so that the frames below always encode
	}
	addrs := c.addrs()
	states := make([]state, len(addrs))
	ph := getPhase(len(c.addrGroup))
	defer putPhase(ph)
	ph.states = states
	encode := func(dst []byte, id uint64) []byte {
		dst, _ = AppendReconfig(dst, id, f)
		return dst
	}
	for k, addr := range addrs {
		if err := ph.put(ctx, c, addr, waiter{ph: ph, k: k}, encode); err != nil {
			return nil, nil, err
		}
	}
	if err := ph.wait(ctx); err != nil {
		return nil, nil, err
	}
	return addrs, states, nil
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

// waiter is one frame in flight: the n reply slots of ph.out from k on,
// which the frame's batch response fills, or, for a reconfig frame
// (n = 0), the slot ph.states[k], which its state reply fills. It is
// answered exactly once, by whoever deletes it from conn.pending — under
// conn.mu, which is what lets a phase withdraw its frames (phase.forget).
// A slot no reply fills keeps its zero value, which is how a crashed peer
// answers: Response{OK: false}, or no state.
type waiter struct {
	ph   *phase
	k, n int
}

// errDown is the internal signal that the remote end is unreachable; put
// reads it as the crashed-peer answer.
var errDown = fmt.Errorf("wire: server down")

// fitsFrame reports whether AppendBatchRequest accepts the item; one that
// fits can always be sent, alone in its frame if need be (MaxValueLen
// leaves room for the longest key).
func fitsFrame(it sim.BatchItem) bool {
	return it.Server >= 0 && int64(it.Server) <= int64(^uint32(0)) && len(it.Req.Key) <= MaxKeyLen && len(it.Req.Value.Value) <= MaxValueLen && !badFlip(it)
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
				if !cn.resolve(rid, nil, &rf.Rec) {
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
					wt.ph.answer()
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
			if err != nil || !cn.resolve(id, resps, nil) {
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
// response (the read loop's scratch, copied into the waiter's slots), or
// rec for a state frame. It reports false when the waiter expects another
// kind or count of reply — a protocol error; a reply for an id nobody
// awaits, a late one for a forgotten request, is dropped.
func (cn *conn) resolve(id uint64, resps []sim.Response, rec *reconfig.Record) bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	wt, ok := cn.pending[id]
	if !ok {
		return true
	}
	if len(resps) != wt.n || (rec != nil) != (wt.n == 0) {
		return false
	}
	delete(cn.pending, id)
	if rec != nil {
		wt.ph.states[wt.k] = state{rec: *rec, ok: true}
	}
	for i, r := range resps { // element by element: a probe's one reply costs no copy call
		wt.ph.out[wt.k+i] = r
	}
	wt.ph.answer()
	return true
}

// teardownLocked closes w's connection and, if it is still the live one,
// answers every pending waiter, leaving its slots OK: false, so callers
// treat the remote servers as crashed. Called with cn.mu held.
func (cn *conn) teardownLocked(w *frameWriter) {
	w.nc.Close()
	if cn.w != w {
		return
	}
	cn.w = nil
	for id, wt := range cn.pending {
		delete(cn.pending, id)
		wt.ph.answer()
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
