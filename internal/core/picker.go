package core

import (
	"fmt"
	"math/rand"
	"sync"

	"bqs/internal/bitset"
)

// Picker is the quorum-selection seam the live engine drives: one call per
// protocol phase, conditioned on the servers the caller currently suspects
// dead. Implementations must be safe for concurrent use (the rng carries
// all per-caller state).
type Picker interface {
	// PickQuorum returns a quorum disjoint from dead, or ErrNoLiveQuorum.
	// The returned set may be shared with other callers; it must not be
	// mutated.
	PickQuorum(rng *rand.Rand, dead bitset.Set) (bitset.Set, error)
}

// NewUniformPicker wraps a System's own SelectQuorum — the uniform
// survivor selection every construction implements.
func NewUniformPicker(sys System) Picker { return uniformPicker{sys} }

type uniformPicker struct{ sys System }

func (p uniformPicker) PickQuorum(rng *rand.Rand, dead bitset.Set) (bitset.Set, error) {
	return p.sys.SelectQuorum(rng, dead)
}

// StrategyPicker samples quorums from an access strategy (Definition 3.8)
// instead of uniformly, so live traffic realizes the strategy's load — the
// LP optimum L(Q), when the strategy comes from measures.Load. The quorum
// list is captured once at construction, so the failure-free hot path is a
// single cumulative-weight lookup with no allocation or scanning.
//
// Under failures the strategy is conditioned on the live set: weights
// renormalize over the quorums disjoint from dead, falling back to uniform
// selection among survivors when all surviving weight is zero, and to
// ErrNoLiveQuorum when nothing survives at all.
type StrategyPicker struct {
	quorums []bitset.Set // aligned with st's weights; never mutated
	st      *Strategy
	load    float64 // L_w(Q) induced by st
	// scratch recycles the survivor index buffer the conditioned draw
	// needs: PickQuorum sits on every protocol phase of every concurrent
	// client, so the under-failure path must not allocate per operation.
	scratch sync.Pool
}

// NewStrategyPicker builds a picker sampling sys's quorum list according
// to st. The strategy must range over exactly the system's quorums.
func NewStrategyPicker(sys Enumerable, st *Strategy) (*StrategyPicker, error) {
	quorums := sys.Quorums()
	if st.Len() != len(quorums) {
		return nil, fmt.Errorf("core: strategy over %d quorums does not match %s with %d",
			st.Len(), sys.Name(), len(quorums))
	}
	p := &StrategyPicker{quorums: quorums, st: st, load: st.InducedSystemLoad(sys)}
	p.scratch.New = func() any {
		buf := make([]int, 0, len(quorums))
		return &buf
	}
	return p, nil
}

// InducedLoad returns L_w(Q) = max_u l_w(u) of the installed strategy —
// the load live traffic converges to under failure-free conditions.
func (p *StrategyPicker) InducedLoad() float64 { return p.load }

// PickQuorum implements Picker.
func (p *StrategyPicker) PickQuorum(rng *rand.Rand, dead bitset.Set) (bitset.Set, error) {
	if dead.Empty() {
		return p.quorums[p.st.Sample(rng)], nil
	}
	// Condition on the live set: one filtering pass collects the surviving
	// quorums and their total weight, so the draw below walks the (often
	// small) survivor list instead of re-filtering the full enumeration.
	// The index buffer is pooled — per-operation allocation here would
	// dominate the under-suspicion hot path (see BenchmarkStrategyPick).
	bufp := p.scratch.Get().(*[]int)
	defer p.scratch.Put(bufp)
	survivors := (*bufp)[:0]
	total := 0.0
	for i, q := range p.quorums {
		if q.Intersects(dead) {
			continue
		}
		survivors = append(survivors, i)
		total += p.st.Weight(i)
	}
	if len(survivors) == 0 {
		return bitset.Set{}, ErrNoLiveQuorum
	}
	if total > 0 {
		// Renormalized draw: u ∈ [0, total) walks the surviving
		// positive-weight quorums, so a zero-weight quorum is never hit.
		u := rng.Float64() * total
		acc := 0.0
		last := -1
		for _, i := range survivors {
			w := p.st.Weight(i)
			if w == 0 {
				continue
			}
			acc += w
			last = i
			if u < acc {
				return p.quorums[i], nil
			}
		}
		// Rounding can leave u a hair above the final accumulated weight.
		return p.quorums[last], nil
	}
	// Every surviving quorum has zero weight: the strategy says nothing
	// about the live set, so pick uniformly among survivors.
	return p.quorums[survivors[rng.Intn(len(survivors))]], nil
}
