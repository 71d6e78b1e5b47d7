package bqs_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"bqs"
	"bqs/internal/compose"
	"bqs/internal/core"
	"bqs/internal/measures"
	"bqs/internal/projective"
	"bqs/internal/systems"
)

// TestPublicAPIEndToEnd exercises the facade the way the README shows:
// build each construction, inspect its parameters, select quorums, and
// measure load and availability.
func TestPublicAPIEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))

	mg, err := bqs.NewMGrid(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bqs.MaskingBound(mg) < 3 || bqs.Resilience(mg) != 5 {
		t.Errorf("M-Grid b=%d f=%d", bqs.MaskingBound(mg), bqs.Resilience(mg))
	}
	q, err := mg.SelectQuorum(rng, bqs.NewSet(49))
	if err != nil || q.Count() != mg.MinQuorumSize() {
		t.Errorf("quorum %v err %v", q, err)
	}

	rt, err := bqs.NewRT(4, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !core.IsBMasking(rt, bqs.MaskingBound(rt)) {
		t.Error("RT masking bound inconsistent")
	}

	bf, err := bqs.NewBoostFPP(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bf.UniverseSize() != 9*7 {
		t.Errorf("boostFPP n = %d", bf.UniverseSize())
	}

	mp, err := bqs.NewMPath(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := bqs.CrashProbabilityMC(mp, 0.1, 300, rng)
	if err != nil || mc.Estimate > 0.2 {
		t.Errorf("M-Path F_0.1 = %g err %v", mc.Estimate, err)
	}
}

func TestPublicAPIMeasures(t *testing.T) {
	maj, err := bqs.NewExplicit("maj3", 3, []bqs.Set{
		bqs.SetOf(0, 1), bqs.SetOf(0, 2), bqs.SetOf(1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	load, strat, err := bqs.Load(maj)
	if err != nil || math.Abs(load-2.0/3) > 1e-9 {
		t.Errorf("load = %g err %v", load, err)
	}
	if strat.Len() != 3 {
		t.Errorf("strategy over %d quorums", strat.Len())
	}
	fair, err := measures.LoadFair(maj)
	if err != nil || math.Abs(fair-load) > 1e-9 {
		t.Errorf("fair load %g vs LP %g", fair, load)
	}
	fp, err := measures.CrashProbabilityExact(maj, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	want := 3*0.25*0.25*0.75 + 0.25*0.25*0.25
	if math.Abs(fp-want) > 1e-12 {
		t.Errorf("F_p = %g, want %g", fp, want)
	}
	if bqs.CrashLowerBoundMT(2, 0.25) > fp {
		t.Error("Prop 4.3 bound violated")
	}
	if bqs.GlobalLoadLowerBound(3, 0) > load {
		t.Error("Cor 4.2 bound violated")
	}
	if bqs.LoadLowerBound(3, 0, 2) > load+1e-9 {
		t.Error("Thm 4.1 bound violated")
	}
	_ = measures.CrashLowerBoundMasking(2, 0, 0.25)
	_ = measures.CrashLowerBoundB(0, 0.25)
	_ = measures.Prop45Applies(maj)
}

func TestPublicAPIComposition(t *testing.T) {
	maj, err := bqs.NewMajority(3)
	if err != nil {
		t.Fatal(err)
	}
	comp := bqs.Compose(maj, maj)
	if comp.UniverseSize() != 9 || comp.MinQuorumSize() != 4 {
		t.Errorf("composite n=%d c=%d", comp.UniverseSize(), comp.MinQuorumSize())
	}
	boosted, err := bqs.Boost(maj, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bqs.MaskingBound(boosted) != 1 {
		t.Errorf("boosted b = %d", bqs.MaskingBound(boosted))
	}
	fpp, err := newFPP(2)
	if err != nil {
		t.Fatal(err)
	}
	majEx, err := maj.Enumerate(0)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := compose.Explicit(majEx, fpp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ex.UniverseSize() != 21 {
		t.Errorf("explicit composition n = %d", ex.UniverseSize())
	}
}

func TestPublicAPISimulation(t *testing.T) {
	sys, err := bqs.NewMaskingThreshold(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := bqs.NewCluster(sys, 2, bqs.WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.InjectFault(bqs.ByzantineFabricate, 0, 4); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w := cluster.NewClient(1)
	if err := w.Write(ctx, "public-api"); err != nil {
		t.Fatal(err)
	}
	got, err := cluster.NewClient(2).Read(ctx)
	if err != nil || got.Value != "public-api" {
		t.Fatalf("read %q err %v", got.Value, err)
	}
	if got.Value == bqs.FabricatedValue {
		t.Fatal("fabrication leaked")
	}
}

func TestPublicAPIErrNoLiveQuorum(t *testing.T) {
	maj, _ := bqs.NewMajority(3)
	rng := rand.New(rand.NewSource(2))
	_, err := maj.SelectQuorum(rng, bqs.SetOf(0, 1))
	if !errors.Is(err, core.ErrNoLiveQuorum) {
		t.Errorf("err = %v, want ErrNoLiveQuorum", err)
	}
}

// newFPP builds the projective plane PG(2,q) as an explicit regular
// quorum system.
func newFPP(q int) (*bqs.ExplicitSystem, error) {
	plane, err := projective.New(q)
	if err != nil {
		return nil, err
	}
	return systems.NewFPP(plane)
}
