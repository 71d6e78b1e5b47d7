package sim

import (
	"context"
	"sync"
)

// sessionConfig collects the Session functional options.
type sessionConfig struct {
	maxBatch int
}

// DefaultSessionBatch is the most probes a session frame carries: a full
// queue flushes at once, a partial one after its flusher's single yield.
const DefaultSessionBatch = 32

// SessionOption configures a Session at construction.
type SessionOption func(*sessionConfig)

// WithSessionBatch sets how many probes a destination's frame holds
// before it flushes (default DefaultSessionBatch). 1 disables
// coalescing: every probe travels alone, the unbatched baseline.
func WithSessionBatch(n int) SessionOption {
	return func(c *sessionConfig) {
		if n > 0 {
			c.maxBatch = n
		}
	}
}

// Session is the asynchronous, batching face of a client: ReadAsync and
// WriteAsync return immediately with futures, and the quorum probes of
// every operation in flight are coalesced per destination into batched
// transport frames (flushed as a wire connection flushes: when full, or
// once nobody else is about to enqueue). The protocol underneath is
// exactly the client's — same per-key timestamps, same masking rule,
// same suspicion handling — so batching changes throughput, never
// semantics. The wrapped client's blocking calls remain usable while a
// session is open; they simply bypass the batcher.
//
// A Session is safe for concurrent use. Close waits for in-flight
// operations and flushes the batcher; operations issued after Close fail
// with ErrSessionClosed.
type Session struct {
	cl  *Client
	b   *batcher  // nil when the transport carries no frames worth batching
	via Transport // probe route for operations: b, or nil for direct

	mu     sync.Mutex
	wg     sync.WaitGroup
	closed bool
}

// NewSession opens a batching session over the client, whichever
// protocol it runs.
func (cl *Client) NewSession(opts ...SessionOption) *Session {
	cfg := sessionConfig{maxBatch: DefaultSessionBatch}
	for _, opt := range opts {
		opt(&cfg)
	}
	s := &Session{cl: cl}
	// Only put the batcher between operations and the transport when the
	// transport can carry a frame (BatchTransport) and has a per-frame cost
	// to amortize (see FrameCoster): the default in-memory transport does
	// not, and there queueing for company was measured at 0.70× the
	// unbatched throughput. The async future API is unchanged either way —
	// operations still overlap, their probes just travel directly.
	_, frames := cl.cluster.transport.(BatchTransport)
	fc, costed := cl.cluster.transport.(FrameCoster)
	if frames && (!costed || fc.WorthBatching()) {
		s.b = newBatcher(cl.cluster, cfg.maxBatch)
		s.via = s.b
	}
	return s
}

// Batching reports whether the session's probes ride coalesced frames —
// false when the transport cannot carry a frame or declared batching not
// worth its cost, and the session issues probes directly.
func (s *Session) Batching() bool { return s.b != nil }

// ReadFuture is the pending result of Session.ReadAsync.
type ReadFuture struct {
	done chan struct{}
	tv   TaggedValue
	err  error
}

// Wait blocks until the read completes and returns its result.
func (f *ReadFuture) Wait() (TaggedValue, error) {
	<-f.done
	return f.tv, f.err
}

// WriteFuture is the pending result of Session.WriteAsync.
type WriteFuture struct {
	done chan struct{}
	err  error
}

// Wait blocks until the write completes and returns its error, if any.
func (f *WriteFuture) Wait() error {
	<-f.done
	return f.err
}

// begin registers one in-flight operation, refusing after Close.
func (s *Session) begin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.wg.Add(1)
	return true
}

// ReadAsync starts a masking read of key and returns its future. The
// operation runs in its own goroutine; its probes ride the session's
// batched frames alongside every other operation in flight.
func (s *Session) ReadAsync(ctx context.Context, key string) *ReadFuture {
	f := &ReadFuture{done: make(chan struct{})}
	if !s.begin() {
		f.err = ErrSessionClosed
		close(f.done)
		return f
	}
	go func() {
		defer s.wg.Done()
		f.tv, f.err = s.cl.readKey(ctx, key, s.via)
		close(f.done)
	}()
	return f
}

// WriteAsync starts a write of (key, value) and returns its future. The
// operation runs in its own goroutine; its probes ride the session's
// batched frames alongside every other operation in flight.
func (s *Session) WriteAsync(ctx context.Context, key, value string) *WriteFuture {
	f := &WriteFuture{done: make(chan struct{})}
	if !s.begin() {
		f.err = ErrSessionClosed
		close(f.done)
		return f
	}
	go func() {
		defer s.wg.Done()
		f.err = s.cl.writeKey(ctx, key, value, s.via)
		close(f.done)
	}()
	return f
}

// Read is the synchronous convenience form of ReadAsync: issue and wait.
func (s *Session) Read(ctx context.Context, key string) (TaggedValue, error) {
	return s.ReadAsync(ctx, key).Wait()
}

// Write is the synchronous convenience form of WriteAsync: issue and
// wait.
func (s *Session) Write(ctx context.Context, key, value string) error {
	return s.WriteAsync(ctx, key, value).Wait()
}

// Close waits for in-flight operations to finish, flushes the batcher,
// and marks the session closed. It is idempotent; operations issued
// after Close fail with ErrSessionClosed.
func (s *Session) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
	if s.b != nil {
		s.b.close()
	}
	return nil
}
