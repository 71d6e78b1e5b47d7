package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"bqs/internal/bitset"
)

// Client accesses the keyed object space through quorums with the
// b-masking protocol of [MR98a] (see masking). Each client owns its rng
// and suspicion state, so distinct clients can run concurrently without
// sharing anything but the cluster; a single Client is also safe to share
// across goroutines — its internal mutex guards only the rng, suspicion
// and per-key sequence floors, so concurrent operations on one client
// genuinely overlap (which is what lets a Session pipeline many keyed
// operations at once).
type Client struct {
	id      int
	cluster *Cluster
	rule    masking

	mu        sync.Mutex
	rng       *rand.Rand
	epoch     uint64           // epoch the suspicion state is sized for
	suspected *suspicion       // servers observed unresponsive, with ages
	lastSeq   map[string]int64 // per-key floor so concurrent same-client writes get distinct timestamps

	// MaxRetries bounds quorum re-selection on unresponsiveness.
	MaxRetries int
	// SuspicionTTL ages the client's failure detector: a server suspected
	// longer than this is optimistically forgiven at the next quorum
	// selection (one failed probe re-suspects it if it is still dead).
	// Zero — the default — disables aging: suspicion then clears only
	// through probe-on-forgive when it exhausts the quorum space. Set it
	// for churn workloads, where servers recover and must regain traffic.
	SuspicionTTL time.Duration
}

// Protocol errors.
var (
	// ErrNoCandidate means no value was vouched for by b+1 quorum members
	// (possible under concurrency or excessive faults).
	ErrNoCandidate = errors.New("sim: read found no value vouched by b+1 servers")
	// ErrRetriesExhausted means live quorums kept containing unresponsive
	// servers beyond the retry budget.
	ErrRetriesExhausted = errors.New("sim: retries exhausted")
)

// NewClient attaches a masking-protocol client to the cluster.
func (c *Cluster) NewClient(id int) *Client {
	return &Client{
		id:         id,
		cluster:    c,
		rule:       masking{c.b},
		rng:        c.clientRNG(id),
		suspected:  newSuspicion(c.N()),
		lastSeq:    make(map[string]int64),
		MaxRetries: 32,
	}
}

// masking is the b-masking reply-acceptance rule of Section 3 (after
// [MR98a]), for quorum systems with |Q₁∩Q₂| ≥ 2b+1: believe what b+1
// servers agree on, since at most b of them lie. Both methods are handed
// the replies of a COMPLETE quorum (each member answered; quorumOp
// guarantees it) and are defined for every such set, so no phase retries
// for any reason but a silent member. The replies come as a slice in
// whatever order the phase gathered them — ascending server order when
// one call serves the whole phase — and neither method depends on that
// order.
type masking struct{ b int }

// timestamp returns the (b+1)-th largest reported timestamp. At least one
// correct server reported something ≥ it, so b fabricators cannot run the
// clock away; and a completed write sits at ≥ b+1 correct members of the
// 2b+1 intersection, all reporting ≥ its timestamp, so the result
// dominates every completed write. Unlike a vote for b+1 IDENTICAL
// timestamps it exists for every reply set — a quorum that catches many
// writes in flight agrees on nothing — which is what makes the timestamp
// phase wait-free. Fewer than b+1 replies yield the zero timestamp.
func (m masking) timestamp(replies []Response) Timestamp {
	// top holds the (up to) b+1 largest timestamps seen, descending; it
	// lives on the stack for every b a test or benchmark here uses.
	var buf [8]Timestamp
	top := buf[:0]
	if m.b >= len(buf) {
		top = make([]Timestamp, 0, m.b+1)
	}
	for _, resp := range replies {
		ts := resp.Value.TS
		if len(top) > m.b {
			if !top[m.b].Less(ts) {
				continue
			}
			top = top[:m.b]
		}
		i := len(top)
		top = append(top, ts)
		for ; i > 0 && top[i-1].Less(ts); i-- {
			top[i] = top[i-1]
		}
		top[i] = ts
	}
	if len(top) <= m.b {
		return Timestamp{}
	}
	return top[m.b]
}

// value returns the highest-timestamped pair with ≥ b+1 identical votes:
// b+1 voters include a correct server, and correct servers only serve
// what a writer wrote.
func (m masking) value(replies []Response) (TaggedValue, bool) {
	// A quorum's replies hold few distinct pairs — one when no write is
	// in flight — so a linear scan over a stack array tallies them without
	// hashing any value; past eight distinct pairs the array spills to the
	// heap.
	type tally struct {
		tv    TaggedValue
		votes int
	}
	var buf [8]tally
	seen := buf[:0]
	for _, resp := range replies {
		k := 0
		for k < len(seen) && (seen[k].tv.TS != resp.Value.TS || seen[k].tv.Value != resp.Value.Value) {
			k++
		}
		if k == len(seen) {
			seen = append(seen, tally{tv: resp.Value})
		}
		seen[k].votes++
	}
	best, found := TaggedValue{}, false
	for _, t := range seen {
		if t.votes > m.b && (!found || best.TS.Less(t.tv.TS)) {
			best, found = t.tv, true
		}
	}
	return best, found
}

// pickQuorum picks a quorum avoiding suspects — through the cluster's
// picker, so selection follows the installed access strategy when one is
// configured. Rehabilitation is per-server (see suspicion): suspects
// older than SuspicionTTL are optimistically forgiven, and when suspicion
// exhausts the quorum space each suspect is probed once and only the
// responders readmitted — a genuinely dead server stays suspected, and
// if no suspect responds the error wraps ErrNoLiveQuorum: the system has
// crashed (Definition 3.10) as far as this client can see.
func (cl *Client) pickQuorum(ctx context.Context) (bitset.Set, error) {
	m := &cl.cluster.met
	var start time.Time
	if m.on {
		start = time.Now()
	}
	cl.mu.Lock()
	// A reconfiguration changes the universe the suspicion set indexes;
	// on the first pick of a new epoch the detector restarts empty,
	// sized for the new fleet (old suspicions name old-epoch ids).
	if st := cl.cluster.cur.Load(); st.epoch != cl.epoch {
		cl.epoch = st.epoch
		cl.suspected = newSuspicion(st.system.UniverseSize())
	}
	cl.suspected.ttl = cl.SuspicionTTL
	q, err := cl.cluster.pickQuorum(ctx, cl.rng, cl.suspected, cl.id)
	cl.mu.Unlock()
	if m.on {
		m.pickSeconds.ObserveDuration(time.Since(start))
	}
	return q, err
}

// noteReplies records unresponsive quorum members (replies[k] is
// members[k]'s) in the client's suspicion state and reports whether the
// whole quorum answered.
func (cl *Client) noteReplies(members []int, replies []Response) bool {
	ok := true
	var fresh int64
	cl.mu.Lock()
	for k, resp := range replies {
		if !resp.OK {
			if cl.suspected.suspect(members[k]) {
				fresh++
			}
			ok = false
		}
	}
	cl.mu.Unlock()
	if fresh > 0 {
		cl.cluster.met.suspicions.Add(fresh)
	}
	return ok
}

// opScratch is one operation's phase buffers: its quorum's members and
// their replies. Every phase and retry of the operation reuses them, and
// the operation returns them to scratchPool when it ends. A Client runs
// operations concurrently, so the buffers belong to the operation, not
// to the client.
type opScratch struct {
	members []int
	replies []Response
}

var scratchPool = sync.Pool{New: func() any { return new(opScratch) }}

// quorumOp is the one retry loop every read and write phase runs: pick
// a quorum avoiding suspects, probe every member (through via when it is
// non-nil — a Session's batcher — else the cluster's transport), charging
// each phase to the client's load stripe, suspect the silent ones, and
// return the replies once a whole quorum answered. It retries only while
// some member is silent. The replies live in sc, so they are valid until
// the operation's next phase.
func (cl *Client) quorumOp(ctx context.Context, req Request, via Transport, sc *opScratch) ([]Response, error) {
	for attempt := 0; attempt < cl.MaxRetries; attempt++ {
		if attempt > 0 {
			cl.cluster.met.retries.Inc()
		}
		q, err := cl.pickQuorum(ctx)
		if err != nil {
			return nil, err
		}
		members := sc.members[:0]
		q.Range(func(i int) bool {
			members = append(members, i)
			return true
		})
		replies := slices.Grow(sc.replies[:0], len(members))[:len(members)]
		sc.members, sc.replies = members, replies
		if err := cl.cluster.probeQuorum(ctx, cl.id, members, req, via, replies); err != nil {
			return nil, err
		}
		if cl.noteReplies(members, replies) {
			return replies, nil
		}
	}
	return nil, ErrRetriesExhausted
}

// nextTS mints the write timestamp: one past the timestamp the masking
// rule drew from phase 1, bumped past every timestamp this client already
// minted for the key. The floor is what keeps CONCURRENT writes by one
// client to one key from colliding — both may observe the same quorum
// timestamp, and (Seq, Writer) pairs must stay unique per value or the
// vouching rule could count votes for two different values under one
// timestamp.
func (cl *Client) nextTS(key string, observed Timestamp) Timestamp {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	seq := observed.Seq + 1
	if floor := cl.lastSeq[key]; seq <= floor {
		seq = floor + 1
	}
	cl.lastSeq[key] = seq
	return Timestamp{Seq: seq, Writer: cl.id}
}

// begin is the epoch gate and the start of the telemetry span: the whole
// operation runs inside the epoch it entered, so a reconfiguration's
// drain can wait it out. The un-instrumented path never reads the clock.
// Callers MUST end the operation they began.
func (cl *Client) begin(ctx context.Context) (*epochState, time.Time, error) {
	st, err := cl.cluster.enterOp(ctx)
	if err != nil || !cl.cluster.met.on {
		return st, time.Time{}, err
	}
	return st, time.Now(), nil
}

// end leaves the epoch and closes the span: every completion lands in the
// epoch/crash counters, successful ones in the read- or write-latency
// histogram.
func (cl *Client) end(st *epochState, read bool, start time.Time, err error) {
	st.exit()
	if m := &cl.cluster.met; m.on {
		m.opDone(read, time.Since(start), err)
	}
}

// Write performs the [MR98a] write on the DefaultKey register — the
// original single-object API, now a thin wrapper over WriteKey.
func (cl *Client) Write(ctx context.Context, value string) error {
	return cl.WriteKey(ctx, DefaultKey, value)
}

// WriteKey performs the [MR98a] write on key's register: draw from some
// quorum's timestamp-only replies a timestamp greater than that of any
// completed write (the (b+1)-th largest reported, which b liars cannot
// inflate), then store (value, ts) at every member of a quorum.
// Timestamps are per key, so the protocol's safety argument applies to
// each key independently. It returns as soon
// as ctx is done, with an error wrapping ctx.Err().
func (cl *Client) WriteKey(ctx context.Context, key, value string) error {
	return cl.writeKey(ctx, key, value, nil)
}

// writeKey is WriteKey with an explicit probe route (nil = the cluster's
// transport; a Session passes its batcher).
func (cl *Client) writeKey(ctx context.Context, key, value string, via Transport) (err error) {
	st, start, err := cl.begin(ctx)
	if err != nil {
		return fmt.Errorf("sim: write: %w", err)
	}
	defer func() { cl.end(st, false, start, err) }()
	sc := scratchPool.Get().(*opScratch)
	defer scratchPool.Put(sc)
	replies, err := cl.quorumOp(ctx, Request{Op: OpReadTimestamps, Key: key, ReaderID: cl.id}, via, sc)
	if err != nil {
		return fmt.Errorf("sim: write: %w", err)
	}
	tv := TaggedValue{Value: value, TS: cl.nextTS(key, cl.rule.timestamp(replies))}
	if _, err = cl.quorumOp(ctx, Request{Op: OpWrite, Key: key, Value: tv}, via, sc); err != nil {
		return fmt.Errorf("sim: write: %w", err)
	}
	return nil
}

// Read performs the [MR98a] read on the DefaultKey register — the
// original single-object API, now a thin wrapper over ReadKey.
func (cl *Client) Read(ctx context.Context) (TaggedValue, error) {
	return cl.ReadKey(ctx, DefaultKey)
}

// ReadKey performs the [MR98a] read on key's register: gather answers
// from a quorum and return the newest pair vouched for by ≥ b+1
// members; with IS ≥ 2b+1 every read quorum shares b+1 correct servers
// with the last write quorum. It returns as soon as ctx is done, with an
// error wrapping ctx.Err().
func (cl *Client) ReadKey(ctx context.Context, key string) (TaggedValue, error) {
	return cl.readKey(ctx, key, nil)
}

// readKey is ReadKey with an explicit probe route (nil = the cluster's
// transport; a Session passes its batcher).
func (cl *Client) readKey(ctx context.Context, key string, via Transport) (tv TaggedValue, err error) {
	st, start, err := cl.begin(ctx)
	if err != nil {
		return TaggedValue{}, fmt.Errorf("sim: read: %w", err)
	}
	defer func() { cl.end(st, true, start, err) }()
	sc := scratchPool.Get().(*opScratch)
	defer scratchPool.Put(sc)
	replies, err := cl.quorumOp(ctx, Request{Op: OpRead, Key: key, ReaderID: cl.id}, via, sc)
	if err != nil {
		return TaggedValue{}, fmt.Errorf("sim: read: %w", err)
	}
	tv, ok := cl.rule.value(replies)
	if !ok {
		return TaggedValue{}, ErrNoCandidate
	}
	return tv, nil
}
