package sim

import (
	"context"
	"fmt"
	"time"

	"bqs/internal/reconfig"
)

// ReconfigReport summarizes one completed reconfiguration: the record
// installed, how long the drain (quiesce of old-epoch operations) took
// within the total propose→retire span, and how many keys were handed
// to the new universe (0 over a wire transport — the shard daemons
// merge their own state at install).
type ReconfigReport struct {
	Record      reconfig.Record
	Drain       time.Duration
	Total       time.Duration
	HandoffKeys int
}

// Reconfigure moves the cluster to a new epoch running rec's quorum
// system — the two-phase protocol of the reconfig package:
//
//  1. Propose: validate the record (b is immutable; the new system must
//     mask b), build the new system, re-solve the load LP for it when
//     the cluster runs -strategy optimal, and construct servers for any
//     universe growth.
//  2. Drain: park entering operations at the epoch gate and wait for
//     in-flight old-epoch operations to finish, bounded by ctx — on
//     expiry the gate reopens, traffic resumes on the old epoch, and an
//     error reports the aborted resize.
//  3. Cut over: with the old epoch quiesced, hand the keyed state to
//     the new universe (in-memory: merge the newest tagged value per
//     key into every new-universe server; over a wire transport: the
//     transport's InstallEpoch pushes the record and each shard daemon
//     merges its own replicas), then atomically publish the new epoch.
//     Parked operations wake and enter it.
//  4. Retire: release servers outside the new universe and their
//     cluster-built stores.
//
// rec.Epoch 0 means "next": the epoch after the current one. A record
// at the current epoch is an idempotent no-op (the follower path — a
// client told about an epoch it already adopted); an older record is an
// error. Reconfigure calls serialize; the data plane never blocks
// except while its epoch drains.
func (c *Cluster) Reconfigure(ctx context.Context, rec reconfig.Record) (ReconfigReport, error) {
	c.reconfigMu.Lock()
	defer c.reconfigMu.Unlock()
	start := time.Now()

	old := c.cur.Load()
	if rec.Epoch == 0 {
		rec.Epoch = old.epoch + 1
	}
	if rec.Epoch == old.epoch {
		return ReconfigReport{Record: old.rec}, nil
	}
	if rec.Epoch < old.epoch {
		return ReconfigReport{}, fmt.Errorf("sim: reconfigure: record epoch %d is behind current epoch %d", rec.Epoch, old.epoch)
	}
	if rec.B != c.b {
		return ReconfigReport{}, fmt.Errorf("sim: reconfigure: cannot change masking bound b=%d to %d — clients vouch values with b+1 replies and a cross-epoch change would mix vouch thresholds", c.b, rec.B)
	}

	// Phase 1 — propose: build and validate the new epoch's state before
	// touching the data plane.
	system, err := reconfig.BuildSystem(rec)
	if err != nil {
		return ReconfigReport{}, fmt.Errorf("sim: reconfigure: %w", err)
	}
	st := newEpochState()
	st.epoch, st.rec, st.system, st.b = rec.Epoch, rec, system, c.b
	n := system.UniverseSize()
	st.load = newLoadCounters(n)
	if err := c.installSelection(st); err != nil {
		return ReconfigReport{}, fmt.Errorf("sim: reconfigure: %w", err)
	}
	c.met.reconfigPhase.Set(float64(reconfig.Proposed))
	servers := make([]*Server, n)
	var created []int
	abort := func() {
		c.releaseStores(created)
		c.met.reconfigAborts.Inc()
		c.met.reconfigPhase.Set(float64(reconfig.Idle))
	}
	for i := 0; i < n; i++ {
		if i < len(old.servers) {
			servers[i] = old.servers[i]
			continue
		}
		s, err := c.buildServer(i)
		if err != nil {
			abort()
			return ReconfigReport{}, fmt.Errorf("sim: reconfigure: %w", err)
		}
		servers[i] = s
		created = append(created, i)
	}
	st.servers = servers

	// Phase 2 — drain the old epoch, bounded by ctx.
	c.met.reconfigPhase.Set(float64(reconfig.Draining))
	drainDur, err := old.drain(ctx)
	if err != nil {
		old.abortDrain()
		abort()
		return ReconfigReport{}, fmt.Errorf("sim: reconfigure: drain: %w", err)
	}
	c.met.drainSeconds.ObserveDuration(drainDur)

	// Phase 3 — cut over. With a wire transport the record travels to
	// every shard (each daemon merges its replicas' state under the new
	// universe before acking); locally the quiesced state is merged into
	// the new universe directly.
	handoff := 0
	if inst, ok := c.transport.(reconfig.Installer); ok {
		if err := inst.InstallEpoch(ctx, rec); err != nil {
			old.abortDrain()
			abort()
			return ReconfigReport{}, fmt.Errorf("sim: reconfigure: install: %w", err)
		}
	} else {
		handoff = MergeState(old.servers, servers)
	}
	c.met.reconfigPhase.Set(float64(reconfig.CutOver))
	if c.mem != nil {
		c.mem.resize(servers)
	}
	c.accumulateRetired(old)
	if c.met.on {
		for _, i := range created {
			c.registerServerSeries(i)
		}
	}
	c.cur.Store(st)
	old.release(false) // wake parked operations into the new epoch
	c.setLowerBoundGauge()
	c.met.epochGauge.Set(float64(rec.Epoch))

	// Phase 4 — retire: servers beyond the new universe are dropped;
	// close the storage engines the cluster built for them.
	if n < len(old.servers) {
		var dropped []int
		for i := n; i < len(old.servers); i++ {
			dropped = append(dropped, i)
		}
		c.releaseStores(dropped)
	}
	c.met.installs.Inc()
	c.met.handoffKeys.Add(int64(handoff))
	c.met.reconfigPhase.Set(float64(reconfig.Idle))
	total := time.Since(start)
	c.met.reconfigSecs.ObserveDuration(total)
	c.met.reg.Eventf("reconfig: epoch %d installed (%s, n=%d, drain %v, %d keys handed off)",
		rec.Epoch, system.Name(), n, drainDur, handoff)
	return ReconfigReport{Record: rec, Drain: drainDur, Total: total, HandoffKeys: handoff}, nil
}

// releaseStores closes and forgets the cluster-built storage engines of
// the given server ids (no-op for ids without one).
func (c *Cluster) releaseStores(ids []int) {
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	for _, id := range ids {
		if st, ok := c.stores[id]; ok {
			st.Close()
			delete(c.stores, id)
		}
	}
}

// accumulateRetired folds the retiring epoch's load counters into the
// running totals the monotonic telemetry counters read.
func (c *Cluster) accumulateRetired(old *epochState) {
	rt := c.retired.Load()
	nt := &retiredTotals{phases: rt.phases + old.load.phases()}
	nt.accesses = make([]int64, max(len(rt.accesses), old.load.n))
	copy(nt.accesses, rt.accesses)
	for i := range old.load.n {
		nt.accesses[i] += old.load.accesses(i)
	}
	c.retired.Store(nt)
}

// MergeState hands quiesced keyed state to a new universe: the newest
// tagged value of every key across from is written to every server of to
// that does not already hold something at least as new. Completing a
// partially-written value this way is legal for the [MR98a] safe register
// — the write happened; handoff merely finishes its propagation — and
// reading stored state (not asking the servers) sidesteps Byzantine reply
// behaviors, which corrupt answers, not registers. A server over a stopped
// store is no source: its memory may hold a nacked write that recovery
// drops, so it counts as crashed, as it does to every probe. Returns how
// many keys moved. Cluster.Reconfigure runs it over the whole fleet; a wire shard
// runs it over the replicas it hosts.
func MergeState(from, to []*Server) int {
	best := make(map[string]TaggedValue)
	for _, s := range from {
		if s.stopped() {
			continue
		}
		for _, key := range s.Keys() {
			tv := s.SnapshotKey(key)
			if cur, ok := best[key]; !ok || cur.TS.Less(tv.TS) {
				best[key] = tv
			}
		}
	}
	for key, tv := range best {
		for _, s := range to {
			if s.SnapshotKey(key).TS.Less(tv.TS) {
				s.HandleWrite(key, tv)
			}
		}
	}
	return len(best)
}
