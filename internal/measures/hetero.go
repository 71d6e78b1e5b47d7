package measures

// This file generalizes the crash probability F_p(Q) (Definition 3.10)
// past the paper's i.i.d. model: real fleets have per-server failure
// probabilities (old disks, hot racks) and correlated failures (a rack
// PDU or a zone outage takes several servers down together). A
// FailureModel carries both — an independent per-server probability
// vector p_i and a set of failure domains that crash as a unit — and the
// exact and Monte Carlo estimators below integrate the system-crash
// event over it. The scalar-p API in crash.go is the uniform,
// domain-free special case and now delegates here.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"bqs/internal/bitset"
	"bqs/internal/core"
)

// Domain is one correlated failure domain: all Members crash together
// with probability P (think rack, power feed, or availability zone).
// Domains may overlap; a server is down when any of its domains is down
// or its own independent crash fires.
type Domain struct {
	Members []int
	P       float64
}

// FailureModel is the heterogeneous, correlated crash model F_p(Q) is
// generalized over: server i is down iff its independent Bernoulli(P[i])
// crash fires or any domain containing i is down (each domain d an
// independent Bernoulli(d.P)). The zero model — nil P, no domains —
// never crashes anything.
type FailureModel struct {
	// P is the per-server independent crash probability vector; nil means
	// all zero, and a non-nil vector must have one entry per server.
	P []float64
	// Domains are the correlated failure domains.
	Domains []Domain
}

// UniformModel returns the paper's i.i.d. model: every one of n servers
// crashes independently with probability p, no correlation.
func UniformModel(n int, p float64) FailureModel {
	vec := make([]float64, n)
	for i := range vec {
		vec[i] = p
	}
	return FailureModel{P: vec}
}

// Validate checks the model against an n-server universe: probabilities
// in [0,1] (NaN rejected), a P vector of length n when present, and
// domains with at least one member, all members in [0,n), none repeated
// within a domain.
func (m FailureModel) Validate(n int) error {
	if m.P != nil && len(m.P) != n {
		return fmt.Errorf("measures: p vector has %d entries for %d servers", len(m.P), n)
	}
	for i, p := range m.P {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("measures: p[%d]=%g outside [0,1]", i, p)
		}
	}
	for d, dom := range m.Domains {
		if len(dom.Members) == 0 {
			return fmt.Errorf("measures: domain %d has no members", d)
		}
		if !(dom.P >= 0 && dom.P <= 1) {
			return fmt.Errorf("measures: domain %d probability %g outside [0,1]", d, dom.P)
		}
		seen := make(map[int]bool, len(dom.Members))
		for _, s := range dom.Members {
			if s < 0 || s >= n {
				return fmt.Errorf("measures: domain %d member %d outside universe [0,%d)", d, s, n)
			}
			if seen[s] {
				return fmt.Errorf("measures: domain %d repeats member %d", d, s)
			}
			seen[s] = true
		}
	}
	return nil
}

// DownProbabilities returns the marginal per-server down probability the
// model induces: 1 − (1−P[i])·Π_{domains d ∋ i}(1−d.P). This is the p
// vector to quote when comparing a correlated model against
// independent-only analysis (the marginals agree; the joint law does
// not).
func (m FailureModel) DownProbabilities(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		up := 1.0
		if m.P != nil {
			up = 1 - m.P[i]
		}
		for _, dom := range m.Domains {
			for _, s := range dom.Members {
				if s == i {
					up *= 1 - dom.P
					break
				}
			}
		}
		out[i] = 1 - up
	}
	return out
}

// bernoulli is one independent failure source of the flattened model:
// with probability p, the servers of mask go down.
type bernoulli struct {
	p    float64
	mask uint64
}

// flatten lists the model's independent Bernoulli sources over an
// n-server universe: one per server with P[i] > 0 is implicit in the
// per-source masks, one per domain. The exact enumerator walks 2^len(out)
// outcomes, so the caller bounds len(out).
func (m FailureModel) flatten(n int) []bernoulli {
	var out []bernoulli
	for i, p := range m.P {
		out = append(out, bernoulli{p: p, mask: 1 << uint(i)})
	}
	for _, dom := range m.Domains {
		var mask uint64
		for _, s := range dom.Members {
			mask |= 1 << uint(s)
		}
		out = append(out, bernoulli{p: dom.P, mask: mask})
	}
	return out
}

// quorumMasks materializes the system's quorums as bitmasks, shared by
// every exact enumerator in this package.
func quorumMasks(sys core.Enumerable) []uint64 {
	quorums := sys.Quorums()
	masks := make([]uint64, len(quorums))
	for i, q := range quorums {
		var m uint64
		q.Range(func(e int) bool {
			m |= 1 << uint(e)
			return true
		})
		masks[i] = m
	}
	return masks
}

// systemDead reports whether the dead-server mask intersects every
// quorum — the system-crash event of Definition 3.10.
func systemDead(masks []uint64, dead uint64) bool {
	for _, m := range masks {
		if m&dead == 0 {
			return false
		}
	}
	return true
}

// CrashProbabilityExactVec computes the heterogeneous F_p(Q) exactly for
// a per-server crash probability vector: server i crashes independently
// with probability p[i]; the system crashes when every quorum contains a
// crashed server. The universe is capped at MaxExactUniverse, as in the
// scalar case.
func CrashProbabilityExactVec(sys core.Enumerable, p []float64) (float64, error) {
	return CrashProbabilityExactModel(sys, FailureModel{P: p})
}

// CrashProbabilityExactModel computes F(Q) exactly under a full
// FailureModel by enumerating every outcome of the model's independent
// failure sources (one Bernoulli per server with a P vector, one per
// domain). The source count — n when P is set, plus one per domain — is
// capped at MaxExactUniverse; larger models need CrashProbabilityMCModel.
func CrashProbabilityExactModel(sys core.Enumerable, m FailureModel) (float64, error) {
	n := sys.UniverseSize()
	if err := m.Validate(n); err != nil {
		return 0, err
	}
	sources := m.flatten(n)
	k := len(sources)
	if k > MaxExactUniverse {
		return 0, fmt.Errorf("measures: %d failure sources (%d-server vector + %d domains): %w",
			k, len(m.P), len(m.Domains), ErrUniverseTooLarge)
	}
	masks := quorumMasks(sys)
	if k == 0 {
		// No failure source ever fires; the system crashes only if some
		// quorum is empty (impossible for valid systems, but stay exact).
		if systemDead(masks, 0) {
			return 1, nil
		}
		return 0, nil
	}

	// Split the sources in half and precompute, for each half, every
	// outcome's probability weight and dead-server mask. The main loop is
	// then one multiply and one lookup per combined outcome — O(2^k)
	// total with O(2^(k/2)) memory — instead of O(k·2^k).
	lo := sources[:k/2]
	hi := sources[k/2:]
	loW, loM := outcomeTables(lo)
	hiW, hiM := outcomeTables(hi)

	total := 0.0
	for h, wh := range hiW {
		if wh == 0 {
			continue
		}
		dh := hiM[h]
		for l, wl := range loW {
			if wl == 0 {
				continue
			}
			if systemDead(masks, dh|loM[l]) {
				total += wh * wl
			}
		}
	}
	// Clamp the tiny float drift so callers can rely on a probability.
	return math.Min(1, math.Max(0, total)), nil
}

// outcomeTables enumerates the 2^len(sources) outcomes of a source list,
// returning each outcome's probability weight and the dead-server mask
// of the sources that fired.
func outcomeTables(sources []bernoulli) (weights []float64, dead []uint64) {
	k := len(sources)
	weights = make([]float64, 1<<uint(k))
	dead = make([]uint64, 1<<uint(k))
	weights[0] = 1
	for i, src := range sources {
		half := 1 << uint(i)
		for j := 0; j < half; j++ {
			w := weights[j]
			weights[j] = w * (1 - src.p)
			weights[half+j] = w * src.p
			dead[half+j] = dead[j] | src.mask
		}
	}
	return weights, dead
}

// SampleDead draws one dead-server set from the model: each independent
// crash and each domain fires as its own Bernoulli. The returned set is
// freshly allocated.
func (m FailureModel) SampleDead(n int, rng *rand.Rand) bitset.Set {
	dead := bitset.New(n)
	for i, p := range m.P {
		if p > 0 && rng.Float64() < p {
			dead.Add(i)
		}
	}
	for _, dom := range m.Domains {
		if dom.P > 0 && rng.Float64() < dom.P {
			for _, s := range dom.Members {
				dead.Add(s)
			}
		}
	}
	return dead
}

// CrashProbabilityMCModel estimates F(Q) under a full FailureModel by
// sampling dead-server sets and asking the system for a surviving
// quorum — the estimator of choice when the model has too many failure
// sources for CrashProbabilityExactModel.
func CrashProbabilityMCModel(sys core.System, m FailureModel, trials int, rng *rand.Rand) (MCResult, error) {
	if trials <= 0 {
		return MCResult{}, errors.New("measures: trials must be positive")
	}
	n := sys.UniverseSize()
	if err := m.Validate(n); err != nil {
		return MCResult{}, err
	}
	failures := 0
	for t := 0; t < trials; t++ {
		dead := m.SampleDead(n, rng)
		if _, err := sys.SelectQuorum(rng, dead); err != nil {
			if !errors.Is(err, core.ErrNoLiveQuorum) {
				return MCResult{}, fmt.Errorf("measures: select quorum: %w", err)
			}
			failures++
		}
	}
	est := float64(failures) / float64(trials)
	return MCResult{
		Estimate: est,
		StdErr:   math.Sqrt(est * (1 - est) / float64(trials)),
		Failures: failures,
		Trials:   trials,
	}, nil
}
