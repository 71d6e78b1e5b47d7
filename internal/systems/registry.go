package systems

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"bqs/internal/compose"
	"bqs/internal/core"
)

// This file is the one place a construction's name meets its constructor.
// The -system flag, a -reconfig target, a reconfig.Record decoded off the
// wire, bqs-verify and the conformance tests all resolve a kind through
// the table below, so "every construction" is the same list whoever asks.

// MaxUniverse bounds the universe any spec may name, matching the wire
// layer's server-id range so every server of every epoch is addressable.
const MaxUniverse = 1 << 20

// kind is one row of the table.
type kind struct {
	name string
	// maxUniverse caps n below MaxUniverse (0) for a kind whose constructor
	// does far more than O(n) work: a spec arrives from a flag or a remote
	// shard's Record, and must not cost minutes or gigabytes.
	maxUniverse int
	// defaultUniverse sizes the bare spec "name" from the masking bound.
	defaultUniverse func(b int) int
	// fit builds the construction over exactly n servers, if n fits.
	fit func(n, b, outer int) (core.Construction, error)
	// defaultOuter marks the kind that composes two systems: its argument
	// is OUTERxINNER, and this sizes the outer system of the bare spec.
	defaultOuter func(b int) int
}

// shaped completes the row of a kind with one shape parameter x (a side, a
// depth, a plane order, or n itself): size is its increasing universe
// formula, defaultX the parameter a bare spec boots with. The kind fits n
// when size(x, b) = n for some x ≥ 1; otherwise the error names the shape.
func shaped[T core.Construction](k kind, shape string, size func(x, b int) int, defaultX func(b int) int, build func(x, b int) (T, error)) kind {
	k.defaultUniverse = func(b int) int { return size(defaultX(b), b) }
	k.fit = func(n, b, _ int) (core.Construction, error) {
		x := 1
		for size(x, b) < n {
			x++
		}
		if size(x, b) != n {
			return nil, fmt.Errorf("universe is not %s", shape)
		}
		return build(x, b)
	}
	return k
}

const squareShape = "a perfect square d²"

func square(d, _ int) int   { return d * d }
func identity(n, _ int) int { return n }

var kinds = []kind{
	shaped(kind{name: "threshold"}, "", identity, func(b int) int { return 4*b + 1 }, NewMaskingThreshold),
	shaped(kind{name: "grid"}, squareShape, square, func(b int) int { return 3*b + 1 }, NewGrid),
	shaped(kind{name: "mgrid"}, squareShape, square, func(b int) int { return 2*b + 2 }, NewMGrid),
	shaped(kind{name: "rt"}, "4^h, the leaves of RT(4,3) at depth h",
		func(h, _ int) int { return 1 << (2 * h) },
		// RT(4,3) masks (2^h − 1)/2 at depth h: the least h with 2^h > 2b.
		func(b int) int { return max(1, bits.Len(uint(2*b))) },
		func(h, _ int) (*RT, error) { return NewRT(4, 3, h) }),
	// The plane is an ExplicitSystem of q²+q+1 lines, pairwise checked.
	shaped(kind{name: "boostfpp", maxUniverse: 2048}, "(4b+1)(q²+q+1), a threshold per point of the plane of order q",
		func(q, b int) int { return (4*b + 1) * (q*q + q + 1) }, func(int) int { return 3 }, NewBoostFPP),
	// The lattice lays out its flow networks at construction: d = 512
	// already allocates half a gigabyte.
	shaped(kind{name: "mpath", maxUniverse: 1 << 16}, squareShape, square, func(b int) int { return 2 * (b + 2) }, NewMPath),
	shaped(kind{name: "mpathedge", maxUniverse: 1 << 16}, "2d(d−1), the edges of a d×d vertex grid",
		func(d, _ int) int { return 2 * d * (d - 1) }, func(b int) int { return 2 * (b + 2) }, NewMPathEdge),
	// The unbalanced regular system of [NW98]: the hub sits in n−1 of the n
	// quorums, so the uniform strategy loads it at ≈ 1 while the LP strategy
	// shifts weight to the rim. An ExplicitSystem, n quorums pairwise checked.
	shaped(kind{name: "wheel", maxUniverse: 1024}, "", identity, func(int) int { return 12 },
		func(n, b int) (*core.ExplicitSystem, error) {
			if b != 0 {
				return nil, fmt.Errorf("the wheel is a regular (b=0) system; got b=%d", b)
			}
			return NewWheel(n)
		}),
	// Theorem 4.7 composition of two masking thresholds: the outer system's
	// elements are shards, each running an inner threshold.
	{name: "compose",
		defaultUniverse: func(b int) int { return (4*b + 1) * (4*b + 1) },
		defaultOuter:    func(b int) int { return 4*b + 1 },
		fit: func(n, b, outer int) (core.Construction, error) {
			if outer < 1 || n%outer != 0 {
				return nil, fmt.Errorf("universe is not a multiple of outer size %d", outer)
			}
			o, err := NewMaskingThreshold(outer, b)
			if err != nil {
				return nil, fmt.Errorf("outer: %w", err)
			}
			i, err := NewMaskingThreshold(n/outer, b)
			if err != nil {
				return nil, fmt.Errorf("inner: %w", err)
			}
			return compose.New(o, i), nil
		}},
}

// Kinds lists every construction the table can build, in table order.
func Kinds() []string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.name
	}
	return names
}

// lookup finds a kind's row, and refuses a masking bound no universe within
// MaxUniverse can meet (n ≥ 4b+1) — which keeps the size formulas in an int.
func lookup(name string, b int) (*kind, error) {
	if b < 0 || b > MaxUniverse/4 {
		return nil, fmt.Errorf("systems: masking bound %d out of range [0, %d]", b, MaxUniverse/4)
	}
	for i := range kinds {
		if kinds[i].name == name {
			return &kinds[i], nil
		}
	}
	return nil, fmt.Errorf("unknown system %q (want %s)", name, strings.Join(Kinds(), "|"))
}

// Spec is a parsed construction spec — what a reconfig.Record carries
// beside its epoch and masking bound.
type Spec struct {
	Kind     string
	Universe int
	Outer    int // outer-system size of a composition; 0 otherwise
}

// String renders the spec the way Parse reads it: "mgrid:36", "compose:5x5".
func (s Spec) String() string {
	if s.Outer > 0 {
		return fmt.Sprintf("%s:%dx%d", s.Kind, s.Outer, s.Universe/s.Outer)
	}
	return fmt.Sprintf("%s:%d", s.Kind, s.Universe)
}

// Parse reads the one spec grammar — "kind" (sized from b by the kind's
// default), "kind:universe", or "compose:OUTERxINNER" (universe =
// outer·inner) — and builds the construction it names for masking bound b,
// so a bad spec fails where it is parsed, not mid-run at a cutover.
func Parse(spec string, b int) (Spec, core.Construction, error) {
	name, arg, sized := strings.Cut(spec, ":")
	k, err := lookup(name, b)
	if err != nil {
		return Spec{}, nil, err
	}
	sp := Spec{Kind: name}
	switch {
	case !sized:
		sp.Universe = k.defaultUniverse(b)
		if k.defaultOuter != nil {
			sp.Outer = k.defaultOuter(b)
		}
	case k.defaultOuter != nil:
		so, si, ok := strings.Cut(arg, "x")
		outer, errO := strconv.Atoi(so)
		inner, errI := strconv.Atoi(si)
		if !ok || errO != nil || errI != nil || outer < 1 || inner < 1 || inner > MaxUniverse/outer {
			return Spec{}, nil, fmt.Errorf("systems: spec %q: want %s:OUTERxINNER with positive sizes (e.g. %s:5x5)", spec, name, name)
		}
		sp.Outer, sp.Universe = outer, outer*inner
	default:
		if sp.Universe, err = strconv.Atoi(arg); err != nil {
			return Spec{}, nil, fmt.Errorf("systems: spec %q: want %s:UNIVERSE (e.g. %s:%d): %w", spec, name, name, k.defaultUniverse(1), err)
		}
	}
	sys, err := Fit(sp.Kind, sp.Universe, b, sp.Outer)
	if err != nil {
		return Spec{}, nil, err
	}
	return sp, sys, nil
}

// Fit builds the kind over exactly universe servers, masking b — the resize
// path, where a Record fixes the universe. outer is the outer-system size
// of a composition and must be 0 otherwise.
func Fit(name string, universe, b, outer int) (core.Construction, error) {
	k, err := lookup(name, b)
	if err != nil {
		return nil, err
	}
	limit := MaxUniverse
	if k.maxUniverse > 0 {
		limit = k.maxUniverse
	}
	if universe < 1 || universe > limit {
		return nil, fmt.Errorf("systems: %s universe %d out of range [1, %d]", name, universe, limit)
	}
	if k.defaultOuter == nil && outer != 0 {
		return nil, fmt.Errorf("systems: %s takes no outer size (got %d)", name, outer)
	}
	sys, err := k.fit(universe, b, outer)
	if err != nil {
		return nil, fmt.Errorf("systems: %s:%d: %w", name, universe, err)
	}
	if m, ok := sys.(core.Masking); ok && m.MaskingBound() < b {
		return nil, fmt.Errorf("systems: %s masks only %d < b=%d", sys.Name(), m.MaskingBound(), b)
	}
	return sys, nil
}
