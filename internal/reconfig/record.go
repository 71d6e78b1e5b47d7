// Package reconfig defines the control-plane state a Byzantine quorum
// cluster must agree on to change shape while serving traffic: an
// epoch-numbered configuration Record naming the quorum construction and
// universe size, and the two-phase install protocol around it — propose
// the new epoch, drain in-flight operations of the old epoch, cut over,
// retire. The paper's Theorem 4.7 motivates the package: composition
// S∘R multiplies capacity (n = nS·nR, L(S∘R) = L(S)·L(R)), so a live
// resize that swaps a small system for a composed one is the
// horizontal-scale path — but only if every client and server agrees on
// which system is current, which is what the epoch number arbitrates.
//
// The package owns pure data and construction only. The drain/cutover
// machinery lives with the data plane (sim.Cluster.Reconfigure); the
// wire encoding of Records lives in the wire codec. Both depend on this
// package, never the reverse.
package reconfig

import (
	"context"
	"fmt"
	"strings"

	"bqs/internal/core"
	"bqs/internal/systems"
)

// MaxUniverse bounds the universe size a Record may name.
const MaxUniverse = systems.MaxUniverse

// MaxKindLen bounds the construction-kind name in a Record; the wire
// codec enforces it on both encode and decode.
const MaxKindLen = 32

// Record is one epoch's configuration: which quorum construction the
// cluster runs, over how many servers, masking how many Byzantine
// faults. Records are totally ordered by Epoch; a client or server at
// epoch e treats any Record with a larger epoch as news and anything
// smaller as stale. The zero Record (epoch 0) stands for "the
// configuration the process booted with" — reconfiguration always moves
// to an epoch ≥ 1.
type Record struct {
	// Epoch numbers the configuration; strictly increasing per install.
	Epoch uint64
	// Kind names the construction, a row of the systems registry:
	// threshold, grid, mgrid, rt, boostfpp, mpath, mpathedge, wheel, or
	// compose (threshold∘threshold per Theorem 4.7).
	Kind string
	// Universe is n, the number of servers the construction spans.
	Universe int
	// B is the masking bound the construction must meet. Reconfiguration
	// never changes b: clients vouch values with b+1 matching replies,
	// and a cross-epoch change of b would let an old-epoch vouch count
	// satisfy a new-epoch read.
	B int
	// Outer is the outer-system universe size for Kind "compose"
	// (inner size is Universe/Outer); 0 otherwise.
	Outer int
}

// Validate checks the bounds the wire codec relies on. It does not check
// construction-specific feasibility (that a grid universe is square, that
// a wheel stays under its cap) — BuildSystem does, with a better error.
func (r Record) Validate() error {
	if r.Universe < 1 || r.Universe > MaxUniverse {
		return fmt.Errorf("reconfig: universe %d out of range [1, %d]", r.Universe, MaxUniverse)
	}
	if r.B < 0 || r.B > r.Universe {
		return fmt.Errorf("reconfig: masking bound %d out of range [0, %d]", r.B, r.Universe)
	}
	if r.Outer < 0 || r.Outer > r.Universe {
		return fmt.Errorf("reconfig: outer size %d out of range [0, %d]", r.Outer, r.Universe)
	}
	if r.Kind == "" || len(r.Kind) > MaxKindLen {
		return fmt.Errorf("reconfig: kind %q empty or longer than %d bytes", r.Kind, MaxKindLen)
	}
	for i := 0; i < len(r.Kind); i++ {
		c := r.Kind[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') {
			return fmt.Errorf("reconfig: kind %q: byte %d is not lowercase alphanumeric", r.Kind, i)
		}
	}
	return nil
}

// String renders the record the way ParseTarget reads it, prefixed with
// the epoch: "e3 mgrid:36".
func (r Record) String() string {
	return fmt.Sprintf("e%d %s", r.Epoch, systems.Spec{Kind: r.Kind, Universe: r.Universe, Outer: r.Outer})
}

// BuildSystem constructs the quorum system a Record names, sized to its
// universe. Unlike a boot-time -system (which may size the universe from
// b), the Record fixes the universe and the construction must fit it —
// that is the whole point of a resize.
func BuildSystem(rec Record) (core.Construction, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return systems.Fit(rec.Kind, rec.Universe, rec.B, rec.Outer)
}

// ParseTarget parses a resize target — a systems.Parse spec that names its
// universe, "kind:universe" or "compose:OUTERxINNER" — into an epoch-less
// Record carrying the given masking bound, building the target once so a
// bad one fails at flag-parse time. The epoch is assigned at install time
// by whoever coordinates the reconfiguration.
func ParseTarget(spec string, b int) (Record, error) {
	if !strings.Contains(spec, ":") {
		return Record{}, fmt.Errorf("reconfig: target %q: want kind:universe (e.g. mgrid:36) or compose:OUTERxINNER", spec)
	}
	sp, _, err := systems.Parse(spec, b)
	if err != nil {
		return Record{}, fmt.Errorf("reconfig: %w", err)
	}
	return Record{Kind: sp.Kind, Universe: sp.Universe, B: b, Outer: sp.Outer}, nil
}

// Installer is the transport seam Cluster.Reconfigure uses to push a
// Record to remote servers: the wire client implements it by fanning an
// install frame to every shard; in-memory clusters have no remote side
// and hand state over directly.
type Installer interface {
	// InstallEpoch delivers the record to every shard and returns once
	// all of them acknowledge an epoch ≥ rec.Epoch (installs are
	// idempotent: a shard already at or past the epoch acks without
	// changing state).
	InstallEpoch(ctx context.Context, rec Record) error
}

// Phase names the stations of the two-phase install, in order. A
// reconfiguration that aborts (drain deadline, install failure) returns
// to Idle; Retired is the terminal success state, at which point the
// new epoch is Idle again for the next resize.
//
//	Idle → Proposed → Draining → CutOver → Retired
type Phase int

const (
	// Idle: no reconfiguration in progress; the current epoch serves.
	Idle Phase = iota
	// Proposed: the target record is validated and the new system built;
	// nothing observable has changed yet.
	Proposed
	// Draining: new operations are parked at the epoch gate; in-flight
	// operations of the old epoch run to completion.
	Draining
	// CutOver: the quiesced state is handed to the new universe and the
	// record installed on every shard; the new epoch starts serving.
	CutOver
	// Retired: old-epoch resources (servers outside the new universe,
	// their stores) are released.
	Retired
)

// String names the phase for logs and the bqs_reconfig_phase gauge.
func (p Phase) String() string {
	switch p {
	case Idle:
		return "idle"
	case Proposed:
		return "proposed"
	case Draining:
		return "draining"
	case CutOver:
		return "cutover"
	case Retired:
		return "retired"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}
