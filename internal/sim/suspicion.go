package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"bqs/internal/bitset"
	"bqs/internal/core"
)

// suspicion is the per-client failure-detector state: which servers the
// client currently believes are unresponsive, and since when. It exists
// because the paper's availability story (Section 4, Definition 3.10) is
// about crashes that COME AND GO — a server that recovers must be
// forgiven and re-probed, never suspected forever, or measured
// availability would drift arbitrarily below F_p(Q) under churn.
//
// Two rehabilitation paths re-admit servers:
//
//   - age-based (ttl > 0): a suspect older than ttl is optimistically
//     forgiven at the next quorum selection; if it is still dead, one
//     failed probe re-suspects it. This is what lets churned clients
//     track recovery while live quorums still exist.
//   - probe-on-forgive: when suspicion has grown so large that no quorum
//     survives, each suspect is probed once and exactly the responders
//     are forgiven. Genuinely dead servers stay suspected — forgetting
//     them (as the old forgive-all path did) erased real knowledge every
//     time — and if NO suspect responds, the system has actually crashed
//     for this client and ErrNoLiveQuorum propagates.
//
// suspicion is guarded by its owner's mutex, like the rng it sits next to.
type suspicion struct {
	set bitset.Set
	at  []time.Time // per-server suspicion time; meaningful while in set
	ttl time.Duration
}

func newSuspicion(n int) *suspicion {
	return &suspicion{set: bitset.New(n), at: make([]time.Time, n)}
}

// suspect marks a server unresponsive as of now, reporting whether the
// suspicion is new (false when it merely refreshes the age of an
// existing suspect) — the distinction the suspicion counter wants.
func (s *suspicion) suspect(id int) bool {
	fresh := !s.set.Contains(id)
	s.set.Add(id)
	s.at[id] = time.Now()
	return fresh
}

// forgive clears one server's suspicion.
func (s *suspicion) forgive(id int) {
	s.set.Remove(id)
}

// contains reports whether the server is currently suspected.
func (s *suspicion) contains(id int) bool { return s.set.Contains(id) }

// forgiveAged optimistically forgives every suspect older than ttl,
// returning how many it forgave; a no-op when aging is disabled
// (ttl ≤ 0).
func (s *suspicion) forgiveAged() int {
	if s.ttl <= 0 || s.set.Empty() {
		return 0
	}
	cutoff := time.Now().Add(-s.ttl)
	forgiven := 0
	for _, id := range s.set.Elements() {
		if s.at[id].Before(cutoff) {
			s.set.Remove(id)
			forgiven++
		}
	}
	return forgiven
}

// pickQuorum is the quorum-selection path under Client.pickQuorum: ask
// the cluster's picker (strategy-aware when one is installed) for a
// quorum avoiding the suspects, after retiring suspicions older than the
// client's TTL. When suspicion has exhausted the quorum space it probes
// every suspect once — off the load books, these are failure-detector
// messages rather than quorum accesses in the Definition 3.8 sense — and
// forgives exactly the responders. If none respond, every quorum
// intersects a set of genuinely unresponsive servers: the live system is
// in the crashed state of Definition 3.10 as far as this client can
// observe, and the error wraps core.ErrNoLiveQuorum so harnesses can
// count it against F_p(Q).
func (c *Cluster) pickQuorum(ctx context.Context, rng *rand.Rand, sus *suspicion, readerID int) (bitset.Set, error) {
	if aged := sus.forgiveAged(); aged > 0 {
		c.met.forgivesTTL.Add(int64(aged))
	}
	picker := c.cur.Load().picker
	q, err := picker.PickQuorum(rng, sus.set)
	if err == nil {
		return q, nil
	}
	if !errors.Is(err, core.ErrNoLiveQuorum) || sus.set.Empty() {
		return bitset.Set{}, err
	}
	forgiven := 0
	for _, id := range sus.set.Elements() {
		// Each suspect gets a few probes, not one: a single dropped reply on
		// a lossy network must not leave a live server suspected — or, worse,
		// let pure message loss masquerade as a system crash. A crashed
		// server answers OK: false deterministically, so the retries change
		// nothing about genuine-crash detection (availability runs are
		// lossless anyway); they only push the false-negative probability for
		// live suspects to dropRate^rehabProbes per exhaustion event.
		for attempt := 0; attempt < rehabProbes; attempt++ {
			resp, perr := c.transport.Invoke(ctx, id, Request{Op: OpReadTimestamps, ReaderID: readerID})
			if perr != nil {
				return bitset.Set{}, perr // transport abort: ctx done, client closed
			}
			if resp.OK {
				sus.forgive(id)
				forgiven++
				break
			}
		}
	}
	if forgiven == 0 {
		c.met.reg.Eventf("client %d: system crash: all %d suspects unresponsive, no live quorum", readerID, sus.set.Count())
		return bitset.Set{}, fmt.Errorf("sim: all %d suspects unresponsive: %w", sus.set.Count(), core.ErrNoLiveQuorum)
	}
	c.met.forgivesProbe.Add(int64(forgiven))
	c.met.reg.Eventf("client %d: probe-on-forgive readmitted %d suspects", readerID, forgiven)
	return picker.PickQuorum(rng, sus.set)
}

// rehabProbes is how many times a probe-on-forgive sweep retries each
// suspect before leaving it suspected. Rehabilitation only runs when
// suspicion has exhausted the quorum space — rare — so the extra probes
// are cheap, and they keep transient message loss from reading as death.
const rehabProbes = 3
