package sim

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"bqs/internal/core"
	"bqs/internal/reconfig"
)

// epochState is everything about a Cluster that one reconfiguration
// epoch owns: the quorum system, the servers it spans, the picker and
// strategy that select quorums from it, the load accounting measured
// against it, and the drain gate that empties it before a cutover.
// The Cluster holds the current epoch behind one atomic pointer; an
// operation runs entirely inside the epoch it entered (the drain gate
// guarantees no operation straddles a cutover), so everything here is
// read without locks on the hot path.
type epochState struct {
	epoch  uint64
	rec    reconfig.Record // the installed record; zero-valued at boot (epoch 0)
	system core.System
	b      int

	servers   []*Server
	picker    core.Picker
	stratLoad float64 // L_w(Q) of the optimal strategy; NaN under uniform selection

	// Empirical load accounting, per epoch so the measured load after a
	// resize converges to the NEW system's L(Q) instead of averaging two
	// epochs' traffic.
	load loadCounters

	// Drain gate. ops counts client operations currently inside this
	// epoch. A reconfiguration sets draining and waits for ops to reach
	// zero; entering operations that observe draining back out and park
	// on gate() until the epoch resolves. On a successful cutover
	// draining stays set forever and the gate closes — late entrants
	// retry and land on the new epoch. On an abort draining clears and
	// the gate is closed-and-replaced, waking entrants back into this
	// epoch. Plain atomics (sequentially consistent in Go) make the
	// enter/drain handshake race-free: an entrant increments ops before
	// checking draining, the drainer sets draining before polling ops,
	// so either the entrant sees the drain or the drainer sees the op.
	ops      atomic.Int64
	draining atomic.Bool
	gateMu   sync.Mutex
	gateCh   chan struct{}
}

// newEpochState wires the drain gate; callers fill the configuration.
func newEpochState() *epochState {
	return &epochState{gateCh: make(chan struct{})}
}

// gate returns the channel a parked entrant waits on.
func (st *epochState) gate() <-chan struct{} {
	st.gateMu.Lock()
	defer st.gateMu.Unlock()
	return st.gateCh
}

// release closes the gate, waking every parked entrant. With replace,
// a fresh gate is installed for the next drain attempt (the abort
// path); without, the epoch is retired and the gate stays closed.
func (st *epochState) release(replace bool) {
	st.gateMu.Lock()
	defer st.gateMu.Unlock()
	close(st.gateCh)
	if replace {
		st.gateCh = make(chan struct{})
	}
}

// exit retires one operation from the epoch.
func (st *epochState) exit() { st.ops.Add(-1) }

// enterOp admits one client operation into the current epoch, parking
// it while a drain is in progress, and returns the epoch it entered.
// Callers MUST st.exit() when the operation completes — the drain gate
// counts on it.
func (c *Cluster) enterOp(ctx context.Context) (*epochState, error) {
	for {
		st := c.cur.Load()
		st.ops.Add(1)
		if !st.draining.Load() {
			return st, nil
		}
		st.ops.Add(-1)
		select {
		case <-st.gate():
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// drain parks new entrants and waits until every in-flight operation of
// the epoch has exited, polling the op counter (bounded by ctx — the
// caller aborts the reconfiguration on expiry). The returned duration
// is how long the quiesce took.
func (st *epochState) drain(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	st.draining.Store(true)
	for st.ops.Load() != 0 {
		select {
		case <-ctx.Done():
			return time.Since(start), ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
	return time.Since(start), nil
}

// abortDrain reopens the epoch after a failed reconfiguration: clear
// draining first, then cycle the gate so parked entrants re-check it.
func (st *epochState) abortDrain() {
	st.draining.Store(false)
	st.release(true)
}

// loadStripes is how many copies of its load counters an epoch keeps.
// A phase charges the copy its client's id picks, so clients with
// distinct ids modulo loadStripes write disjoint cache lines, and the
// readers sum the copies.
const loadStripes = 8

// loadCounters is an epoch's Definition 3.8 accounting: how many quorum
// accesses (phases) ran and how many of them reached each server, kept
// in loadStripes padded copies. Stripe s is c[s*stride:][:n+1]: phases
// first, then one counter per server. stride leaves at least a cache
// line (eight counters) unused after each stripe, so no two stripes share
// a line whatever the slice's alignment.
type loadCounters struct {
	n, stride int
	c         []atomic.Int64
}

func newLoadCounters(n int) loadCounters {
	stride := (n+1+7)/8*8 + 8
	return loadCounters{n: n, stride: stride, c: make([]atomic.Int64, loadStripes*stride)}
}

// charge counts one phase of client's that probed members.
func (l *loadCounters) charge(client int, members []int) {
	s := l.c[int(uint(client)%loadStripes)*l.stride:][:l.n+1]
	s[0].Add(1)
	for _, i := range members {
		if i >= 0 && i < l.n {
			s[1+i].Add(1)
		}
	}
}

// sum adds counter k (0 for phases, 1+i for server i) across the stripes.
func (l *loadCounters) sum(k int) int64 {
	var total int64
	for s := 0; s < loadStripes; s++ {
		total += l.c[s*l.stride+k].Load()
	}
	return total
}

// phases returns how many phases have been charged.
func (l *loadCounters) phases() int64 { return l.sum(0) }

// accesses returns how many charged phases probed server i (0 when i is
// outside the epoch).
func (l *loadCounters) accesses(i int) int64 {
	if i < 0 || i >= l.n {
		return 0
	}
	return l.sum(1 + i)
}

// reset zeroes every stripe.
func (l *loadCounters) reset() {
	for k := range l.c {
		l.c[k].Store(0)
	}
}

// retiredTotals carries the load counters of all retired epochs, so the
// telemetry counters (bqs_cluster_phases_total,
// bqs_server_accesses_total) stay monotonic across cutovers even though
// each epoch's own accounting restarts at zero.
type retiredTotals struct {
	phases   int64
	accesses []int64
}
