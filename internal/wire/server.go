package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"maps"
	"net"
	"sync"

	"bqs/internal/obs"
	"bqs/internal/reconfig"
	"bqs/internal/sim"
	"bqs/internal/store"
)

// ErrServerClosed is returned by Serve and ListenAndServe after Shutdown
// or Close, mirroring net/http's contract.
var ErrServerClosed = errors.New("wire: server closed")

// Server hosts a shard of the universe: a set of sim.Server replicas,
// keyed by their global server index, reachable over TCP. Connections are
// handled concurrently, each by its own read loop, which serves batch
// frames by one rule whatever the replicas' stores (see serveBatch): a
// frame is answered on the loop unless a write in it waits for a group
// commit, and then only that wait leaves the loop. A reconfig frame, which
// can wait on the epoch drain, gets a goroutine of its own. Replica
// behavior (crash and Byzantine fault injection) stays the business of
// the underlying sim.Server objects.
type Server struct {
	replicas map[int]*sim.Server
	met      *wireMetrics

	// epochMu guards the installed configuration record. A gated frame
	// holds the read side for the whole replica operation, from staging
	// to its last commit, so an install (exclusive) doubles as the shard's
	// drain: it waits out in-flight gated work, merges replica
	// state on a quiesced shard, and every request admitted afterwards
	// sees the new epoch. rec is zero until the first install — the
	// shard then runs whatever configuration it booted with, at epoch 0.
	epochMu sync.RWMutex
	rec     reconfig.Record

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]*frameWriter
	closed    bool

	inflight sync.WaitGroup // outstanding request handlers, for Shutdown
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithServerMetrics wires the daemon into an obs.Registry: frames and
// bytes in each direction, batch-frame op counts, and a live
// open-connection gauge. A nil registry is a no-op.
func WithServerMetrics(reg *obs.Registry) ServerOption {
	return func(s *Server) {
		if reg == nil {
			return
		}
		s.met = newWireMetrics(reg, "server")
		reg.GaugeFunc("bqs_wire_open_conns_count", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.conns))
		})
	}
}

// NewServer returns a Server hosting the given replicas. The map is
// copied; mutate replica behavior through the *sim.Server values.
func NewServer(replicas map[int]*sim.Server, opts ...ServerOption) *Server {
	srv := &Server{
		replicas:  maps.Clone(replicas),
		met:       &wireMetrics{},
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]*frameWriter),
	}
	for _, opt := range opts {
		opt(srv)
	}
	return srv
}

// ListenAndServe listens on addr ("host:port") and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Serve accepts connections on lis until Shutdown or Close, handling each
// in its own goroutine. It always returns a non-nil error; after a clean
// shutdown that error is ErrServerClosed.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return ErrServerClosed
	}
	s.listeners[lis] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, lis)
		s.mu.Unlock()
		lis.Close()
	}()
	for {
		nc, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return ErrServerClosed
		}
		w := newFrameWriter(nc, s.met) // shared by the connection's handlers
		s.conns[nc] = w
		s.mu.Unlock()
		go s.serveConn(w)
	}
}

// serveConn reads batch and reconfig frames and answers them. A
// malformed frame or an unknown tag is a protocol error: the connection
// is dropped (a well-behaved peer never sends one, and there is no way to
// re-synchronize a corrupt stream) — which is also the whole of version
// compatibility, since the peer reads the drop as a crashed shard.
//
// Batch frames decode into one reused item slice. Replies answered on the
// loop wait in the write buffer while another whole frame is already read
// in; before a read that could block, the loop flushes — so a burst that
// arrived together is answered in one write(2). The loop holds one
// in-flight registration from its first unflushed reply to that flush, so
// Shutdown's drain waits for those replies, and it is open while a frame
// is staged, so a frame's goroutine registers under it.
func (s *Server) serveConn(w *frameWriter) {
	nc := w.nc
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
	}()
	held := false // the loop has replies buffered, under one in-flight registration
	release := func() {
		if err := w.flush(); err != nil {
			nc.Close()
		}
		held = false
		s.inflight.Done()
	}
	defer func() {
		if held {
			release()
		}
	}()
	br := bufio.NewReader(nc)
	var buf []byte
	var items []sim.BatchItem // the loop's decode target, reused frame after frame
	var strs reuse            // the last key and value decoded, shared by the items that repeat them
	for {
		if held && !frameBuffered(br) {
			release()
		}
		frame, err := ReadFrame(br, buf)
		if err != nil {
			return
		}
		buf = frame
		s.met.framesIn.Inc()
		s.met.bytesIn.Add(int64(len(frame)) + 4) // +4: the length prefix is wire bytes too
		switch frame[0] {
		case tagReconfig:
			recID, rf, err := DecodeReconfig(frame)
			if err != nil || (rf.Kind != ReconfigInstall && rf.Kind != ReconfigQuery) {
				return // state/wrongepoch are server→client only: protocol error
			}
			if !s.beginRequest() {
				return // shutting down: stop consuming new frames
			}
			go func() {
				defer s.inflight.Done()
				cur, _ := s.CurrentRecord()
				if rf.Kind == ReconfigInstall {
					cur = s.install(rf.Rec)
				}
				s.reply(w, true, recID, nil, ReconfigState, cur)
			}()
		case tagBatchRequest:
			var batchID, gate uint64
			if batchID, gate, items, err = decodeBatchRequest(frame, items, &strs); err != nil {
				return
			}
			if !held && !s.beginRequest() {
				return // shutting down: stop consuming new frames
			}
			if s.serveBatch(w, batchID, gate, items) {
				held = true
			} else if !held {
				s.inflight.Done() // handed off: its goroutine registered on its own
			}
		default:
			return // unknown frame kind: protocol error
		}
	}
}

// frameBuffered reports whether br already holds the whole of the next
// frame, so reading it cannot block.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	prefix, _ := br.Peek(4) // buffered: Peek cannot block or fail
	return br.Buffered()-4 >= int(binary.BigEndian.Uint32(prefix))
}

// reply puts one reply frame on the connection — a batch response when
// resps is non-nil, else rec as a reconfig frame of the given kind. With
// flush, it also sees the frame flushed, by this goroutine or carried by
// another's flush (see frameWriter), before it returns: a goroutine that
// is done has its answer on the socket, which is what lets Shutdown wait
// on the in-flight registrations alone. Without, the frame waits for the
// read loop's flush.
// A failed write closes the connection, which unblocks the read loop.
func (s *Server) reply(w *frameWriter, flush bool, id uint64, resps []sim.Response, kind ReconfigKind, rec reconfig.Record) {
	encode := func(dst []byte, id uint64) []byte {
		if resps == nil {
			return append(dst, recordFrame(id, kind, rec)...) // rare: off the probe path
		}
		dst, _ = AppendBatchResponse(dst, id, resps) // answerBatch's fit: always encodes
		return dst
	}
	var err error
	if flush {
		err = w.send(id, encode)
	} else {
		err = w.put(id, encode)
	}
	if err != nil {
		w.nc.Close()
	}
}

// serveBatch serves one batch frame on the read loop. It stages every
// item in order (see stage). With no commit pending, the reply goes into
// the write buffer for the loop's flush, and serveBatch reports true.
// Otherwise only the wait leaves the loop: one goroutine waits once per
// group commit (a store.Disk puts every write staged in one window into
// the same Commit), answers OK: false for exactly the items whose commit
// failed, and replies — no reply leaves before every write in it is
// durable, and a durable frame costs one goroutine, not one per item.
//
// A frame gated at epoch E (gate = E+1) is served only while E is the
// shard's current epoch, and a mismatch answers a wrongepoch frame
// carrying the shard's record (the retriable OK: false signal on the
// client side, never an abort). Its epoch read lock is held until its
// last commit, by the loop or by the goroutine (a sync.RWMutex may be
// unlocked by another goroutine), so install waits out every gated write
// that is staged but not yet durable. A frame with gate 0 is served
// ungated: the epoch plane is opt-in, and a flip is never gated.
//
// Degradation is per item, never per frame: an item for a server this
// shard does not host — or one whose value cannot travel back (an
// oversized answer from a Byzantine replica) — answers Response{OK: false},
// and values are dropped item by item once the running total would exceed
// MaxFrame (the flags+header floor of every item fits MaxBatchOps many
// times over), so the reply always encodes and one huge stored value
// cannot make the shard's other replicas read as crashed.
func (s *Server) serveBatch(w *frameWriter, id, gate uint64, items []sim.BatchItem) bool {
	if gate != 0 {
		s.epochMu.RLock()
		if cur := s.rec; gate-1 != cur.Epoch {
			s.epochMu.RUnlock()
			s.met.wrongEpoch.Inc()
			s.reply(w, false, id, nil, ReconfigWrongEpoch, cur)
			return true
		}
	}
	s.met.batchOps.Observe(float64(len(items)))
	var one [1]sim.Response // a lone probe is answered from the loop's stack
	var many []sim.Response // several, or one whose commit is pending, from the heap
	resps := one[:]
	if len(items) > 1 {
		many = make([]sim.Response, len(items))
		resps = many
	}
	commits := s.stageItems(items, resps)
	if commits == nil {
		s.answerBatch(w, false, id, gate, resps)
		return true
	}
	if many == nil {
		many = []sim.Response{one[0]} // a copy: the goroutine must not keep one alive, or it escapes on every frame
	}
	s.inflight.Add(1) // under the loop's registration: cannot race Shutdown's Wait
	go s.awaitBatch(w, id, gate, many, commits)
	return false
}

// awaitBatch finishes a frame whose commits are pending, off the loop.
func (s *Server) awaitBatch(w *frameWriter, id, gate uint64, resps []sim.Response, commits []*store.Commit) {
	defer s.inflight.Done()
	awaitCommits(resps, commits)
	s.answerBatch(w, true, id, gate, resps)
}

// answerBatch releases the frame's epoch gate and replies with resps,
// NACKing whatever would not fit a frame (see serveBatch).
func (s *Server) answerBatch(w *frameWriter, flush bool, id, gate uint64, resps []sim.Response) {
	if gate != 0 {
		s.epochMu.RUnlock()
	}
	total := batchHeaderLen
	for i, resp := range resps {
		if len(resp.Value.Value) > MaxValueLen || total+respItemMinLen+len(resp.Value.Value) > MaxFrame {
			resp = sim.Response{OK: false}
			resps[i] = resp
		}
		total += respItemMinLen + len(resp.Value.Value)
	}
	s.reply(w, flush, id, resps, 0, reconfig.Record{})
}

// stageItems stages items[i] into resps[i] and returns the commits still
// to wait on, indexed the same way; nil when nothing is pending.
func (s *Server) stageItems(items []sim.BatchItem, resps []sim.Response) []*store.Commit {
	var commits []*store.Commit // made by the first item that must wait
	for i, it := range items {
		var c *store.Commit
		resps[i], c = s.stage(it.Server, it.Req)
		if c != nil {
			if commits == nil {
				commits = make([]*store.Commit, len(items))
			}
			commits[i] = c
		}
	}
	return commits
}

// awaitCommits waits on each item's commit in turn and NACKs the items
// whose commit failed.
func awaitCommits(resps []sim.Response, commits []*store.Commit) {
	for i, c := range commits {
		if c.Wait() != nil {
			resps[i] = sim.Response{OK: false}
		}
	}
}

// beginRequest registers an in-flight request handler, refusing once
// shutdown has begun. Gating the Add on s.closed under the mutex keeps
// inflight.Add from racing Shutdown's inflight.Wait — the sync.WaitGroup
// documentation forbids an Add from zero concurrent with a Wait.
func (s *Server) beginRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.inflight.Add(1)
	return true
}

// stage applies one request to the addressed replica, or a flip item to
// its behavior (control). A write's answer stands once the returned
// commit's Wait succeeds (see sim.Server.StageRequest). A request for a
// server this shard does not host answers Response{OK: false}: to the
// client that is indistinguishable from a crash, which is the correct
// suspicion signal for a misconfigured route.
func (s *Server) stage(server int, req sim.Request) (sim.Response, *store.Commit) {
	if req.Op == opFlip {
		return s.control(server, sim.Behavior(req.ReaderID)), nil
	}
	rep, ok := s.replicas[server]
	if !ok {
		return sim.Response{OK: false}, nil
	}
	resp, c, err := rep.StageRequest(req)
	if err != nil {
		return sim.Response{OK: false}, nil
	}
	return resp, c
}

// CurrentRecord returns the shard's installed configuration record; ok
// is false while the shard still runs its boot configuration (epoch 0,
// nothing installed yet).
func (s *Server) CurrentRecord() (reconfig.Record, bool) {
	s.epochMu.RLock()
	defer s.epochMu.RUnlock()
	return s.rec, s.rec.Epoch != 0
}

// install adopts rec if it is news and returns the shard's (possibly
// updated) record; a record at or behind the shard's epoch acks without
// changing state, which is what makes the coordinator's per-shard fan-
// out idempotent. The exclusive lock doubles as the shard's drain:
// in-flight gated requests hold the read side, so the merge below runs
// on a quiesced shard and every request admitted afterwards is gated
// at the new epoch.
func (s *Server) install(rec reconfig.Record) reconfig.Record {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	if rec.Epoch <= s.rec.Epoch {
		return s.rec
	}
	s.rec = rec
	// The shard-local half of the cluster handoff: every hosted replica's
	// state flows to the hosted replicas that remain in the new universe.
	from := make([]*sim.Server, 0, len(s.replicas))
	var to []*sim.Server
	for id, rep := range s.replicas {
		from = append(from, rep)
		if id < rec.Universe {
			to = append(to, rep)
		}
	}
	sim.MergeState(from, to)
	return s.rec
}

// recordFrame encodes the shard's record as a state or wrongepoch reply.
// A record only reaches the shard through DecodeReconfig, which validates
// it exactly as the encoder does; should one fail to encode regardless,
// the reply says "nothing installed" — still the frame kind the caller is
// waiting for, where any other kind would make the client tear the whole
// connection down.
func recordFrame(id uint64, kind ReconfigKind, rec reconfig.Record) []byte {
	out, err := AppendReconfig(nil, id, ReconfigFrame{Kind: kind, Rec: rec})
	if err != nil {
		out, _ = AppendReconfig(nil, id, ReconfigFrame{Kind: kind})
	}
	return out
}

// control applies a remote behavior flip to the addressed replica — the
// server half of the churn engine's fault-injection channel, which is how
// a faults.FaultController behind a wire.Client crashes and recovers remote
// servers mid-run. A flip for a server this shard does not host answers
// Response{OK: false}, so the driver learns the route was wrong without
// the connection dying.
func (s *Server) control(server int, behavior sim.Behavior) sim.Response {
	rep, ok := s.replicas[server]
	if !ok {
		return sim.Response{OK: false}
	}
	rep.SetBehavior(behavior)
	return sim.Response{OK: true}
}

// Shutdown gracefully stops the server: it closes the listeners (so Serve
// returns ErrServerClosed), waits for in-flight requests to drain, then
// closes the connections. If ctx expires first the remaining connections
// are closed immediately and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	for lis := range s.listeners {
		lis.Close()
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.closeConns()
	return err
}

// Close force-closes the listeners and every open connection.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for lis := range s.listeners {
		lis.Close()
	}
	s.mu.Unlock()
	s.closeConns()
	return nil
}

func (s *Server) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for nc := range s.conns {
		nc.Close()
	}
}
