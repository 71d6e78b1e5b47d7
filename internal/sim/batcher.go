package sim

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// ErrSessionClosed is returned by session operations issued after Close.
var ErrSessionClosed = errors.New("sim: session closed")

// batcher coalesces concurrently-issued probes destined for the same
// place into one transport frame. It implements Transport, so the client
// protocol code is oblivious to it: a probe enqueues and waits, and the
// whole frame travels through Cluster.invokeBatch (one round trip; the
// load was charged per phase before its probes reached the batcher).
//
// It flushes by the rule a wire connection flushes by (wire/flush.go): a
// probe that lands in an empty queue hands the queue to a flusher that
// yields the processor once — so every other probe goroutine ready to
// enqueue gets in behind — and then sends whatever is queued; a queue
// that reaches maxBatch goes at once. A timer would tax the lone probe,
// and a count of operations in flight mis-sizes waves (one operation can
// put several probes into one group per phase, or none), whereas the
// runnable goroutines are exactly the probes about to arrive.
//
// Grouping is per destination server by default; a transport that knows
// several servers share a frame — wire.Client, whose shards each host
// many replicas — exposes BatchGrouper and gets per-shard coalescing, so
// one TCP frame carries probes for every replica of the shard.
type batcher struct {
	c        *Cluster
	maxBatch int
	group    func(server int) int
	yield    func() // runtime.Gosched, the rule's one yield; tests substitute a barrier

	mu     sync.Mutex
	queues map[int]*batchQueue
	closed bool
}

// batchQueue is the pending frame for one destination group.
type batchQueue struct {
	items   []BatchItem
	waiters []chan batchResult // index-aligned with items; each buffered(1)
}

// batchResult is what a flushed frame hands each waiter.
type batchResult struct {
	resp Response
	err  error
}

// newBatcher wires a batcher to the cluster's transport, which must be a
// BatchTransport. maxBatch ≤ 1 still batches correctly — every probe just
// flushes as a frame of one.
func newBatcher(c *Cluster, maxBatch int) *batcher {
	b := &batcher{
		c:        c,
		maxBatch: max(maxBatch, 1),
		group:    func(server int) int { return server },
		yield:    runtime.Gosched,
		queues:   make(map[int]*batchQueue),
	}
	if g, ok := c.transport.(BatchGrouper); ok {
		b.group = g.GroupOf
	}
	return b
}

// Invoke implements Transport: enqueue the probe for its destination
// group and wait for the frame carrying it to come back. The frame
// itself travels under a background context — it aggregates probes from
// operations with unrelated deadlines, so no single operation's
// cancellation may abort it — while each waiter still honors its own ctx.
func (b *batcher) Invoke(ctx context.Context, server int, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	ch := make(chan batchResult, 1)
	g := b.group(server)

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return Response{}, ErrSessionClosed
	}
	q := b.queues[g]
	if q == nil {
		q = &batchQueue{}
		b.queues[g] = q
	}
	q.items = append(q.items, BatchItem{Server: server, Req: req})
	q.waiters = append(q.waiters, ch)
	// Flush on a fresh goroutine, never synchronously in the issuing
	// probe's: the frame travels under a background context, and a probe
	// stuck inside a stalled flush (or its yield) would never reach the ctx
	// select below — its operation's deadline would silently stop working
	// the moment it triggered a flush.
	switch len(q.items) {
	case b.maxBatch:
		items, waiters := q.take()
		b.mu.Unlock()
		go b.flush(items, waiters)
	case 1:
		b.mu.Unlock()
		go b.flushAfterYield(g)
	default:
		b.mu.Unlock()
	}

	select {
	case r := <-ch:
		return r.resp, r.err
	case <-ctx.Done():
		// The probe stays in the frame (the flusher's send is buffered and
		// never blocks); only this waiter gives up.
		return Response{}, ctx.Err()
	}
}

// take empties the queue, handing ownership of the pending frame to the
// caller.
func (q *batchQueue) take() ([]BatchItem, []chan batchResult) {
	items, waiters := q.items, q.waiters
	q.items, q.waiters = nil, nil
	return items, waiters
}

// flushAfterYield is the empty-queue path: yield once, then flush
// whatever the group holds — possibly nothing, if it filled and went
// meanwhile or Close took it.
func (b *batcher) flushAfterYield(g int) {
	b.yield()
	b.mu.Lock()
	items, waiters := b.queues[g].take()
	b.mu.Unlock()
	if len(items) > 0 {
		b.flush(items, waiters)
	}
}

// flush sends one frame and distributes its responses to the waiters.
func (b *batcher) flush(items []BatchItem, waiters []chan batchResult) {
	resps, err := b.c.invokeBatch(context.Background(), items)
	for i, ch := range waiters {
		r := batchResult{err: err}
		if err == nil {
			r.resp = resps[i]
		}
		ch <- r // buffered; an abandoned waiter never blocks the flusher
	}
}

// close flushes anything still pending and refuses further probes.
func (b *batcher) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	type pending struct {
		items   []BatchItem
		waiters []chan batchResult
	}
	var rest []pending
	for _, q := range b.queues {
		if len(q.items) > 0 {
			items, waiters := q.take()
			rest = append(rest, pending{items, waiters})
		}
	}
	b.mu.Unlock()
	for _, p := range rest {
		b.flush(p.items, p.waiters)
	}
}
