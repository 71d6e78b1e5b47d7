// Benchmarks regenerating every table and figure in the paper's
// evaluation, plus micro-benchmarks of the quorum machinery itself. Run
// with:
//
//	go test -bench=. -benchmem
//
// Key measured quantities are surfaced via b.ReportMetric so the bench
// output doubles as the experiment log (see EXPERIMENTS.md for the
// paper-vs-measured discussion).
package bqs_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"

	"bqs"
	"bqs/internal/lattice"
	"bqs/internal/measures"
	"bqs/internal/paper"
	"bqs/internal/sim"
	"bqs/internal/systems"
)

// --- Table 2 -------------------------------------------------------------

func BenchmarkTable2(b *testing.B) {
	var rows []measures.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = paper.Table2(0.125, 1000, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.System {
		case "RT(4,3,h=5)":
			b.ReportMetric(r.Fp, "RT_Fp")
		case "M-Grid(d=32,b=15)":
			b.ReportMetric(r.Fp, "MGrid_Fp")
		}
	}
}

// --- Section 8 worked example ---------------------------------------------

func BenchmarkSection8(b *testing.B) {
	var rows []paper.Section8Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = paper.Section8(1500, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.System == "boostFPP(q=3,b=19)" {
			b.ReportMetric(r.Fp, "boostFPP_Fp")
		}
	}
}

// --- Figures ---------------------------------------------------------------

func BenchmarkFigure1MGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := paper.Figure1MGrid(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2RT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := paper.Figure2RT(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3MPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := paper.Figure3MPath(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Bounds and sweeps -------------------------------------------------------

func BenchmarkLoadVsLowerBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := paper.LoadVsLowerBound(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrashVsLowerBound(b *testing.B) {
	// Exact F_p vs Propositions 4.3–4.5 on an enumerable masking system.
	th, err := bqs.NewMaskingThreshold(13, 3)
	if err != nil {
		b.Fatal(err)
	}
	ex, err := th.Enumerate(0)
	if err != nil {
		b.Fatal(err)
	}
	ps := []float64{0.05, 0.1, 0.2, 0.3, 0.4}
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			fp, err := measures.CrashProbabilityExact(ex, p)
			if err != nil {
				b.Fatal(err)
			}
			if fp < bqs.CrashLowerBoundMT(ex.MinTransversal(), p) {
				b.Fatal("Prop 4.3 violated")
			}
			if fp < measures.CrashLowerBoundMasking(ex.MinQuorumSize(), 3, p) {
				b.Fatal("Prop 4.4 violated")
			}
			if measures.Prop45Applies(ex) && fp < measures.CrashLowerBoundB(3, p) {
				b.Fatal("Prop 4.5 violated")
			}
		}
	}
}

func BenchmarkMGridLoad(b *testing.B) {
	// Proposition 5.2: empirical load of the M-Grid strategy vs analytic.
	mg, err := bqs.NewMGrid(32, 15)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var emp float64
	for i := 0; i < b.N; i++ {
		if emp, err = measures.EmpiricalLoad(mg, 2000, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(emp, "empirical_load")
	b.ReportMetric(mg.Load(), "analytic_load")
}

func BenchmarkMGridCrashGoesToOne(b *testing.B) {
	// Section 5.1: the row bound (and so F_p) escalates with n at fixed p.
	var last float64
	for i := 0; i < b.N; i++ {
		for _, d := range []int{16, 32, 64, 128} {
			mg, err := bqs.NewMGrid(d, 3)
			if err != nil {
				b.Fatal(err)
			}
			last = mg.CrashLowerBoundRows(0.125)
		}
	}
	b.ReportMetric(last, "rowbound_d128")
}

func BenchmarkRTParams(b *testing.B) {
	// Proposition 5.3 parameter algebra across depths.
	for i := 0; i < b.N; i++ {
		for h := 1; h <= 8; h++ {
			rt, err := bqs.NewRT(4, 3, h)
			if err != nil {
				b.Fatal(err)
			}
			_ = rt.MinQuorumSize() + rt.MinIntersection() + rt.MinTransversal()
		}
	}
}

func BenchmarkRTCriticalProbability(b *testing.B) {
	var rows []paper.RTCriticalRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = paper.RTCriticalProbabilities()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.K == 4 && r.L == 3 {
			b.ReportMetric(r.Pc, "RT43_pc")
		}
	}
}

func BenchmarkBoostFPPLoad(b *testing.B) {
	// Proposition 6.2: load ≈ 3/(4q) across q.
	for i := 0; i < b.N; i++ {
		for _, q := range []int{2, 3, 4, 5, 7} {
			bf, err := bqs.NewBoostFPP(q, 5)
			if err != nil {
				b.Fatal(err)
			}
			_ = bf.Load()
		}
	}
}

func BenchmarkBoostFPPCrash(b *testing.B) {
	// Proposition 6.3: exact F_p vs Chernoff bound for p < 1/4.
	bf, err := bqs.NewBoostFPP(3, 19)
	if err != nil {
		b.Fatal(err)
	}
	var fp float64
	for i := 0; i < b.N; i++ {
		for _, p := range []float64{0.05, 0.125, 0.2} {
			v, err := bf.CrashProbability(p)
			if err != nil {
				b.Fatal(err)
			}
			if v > bf.CrashUpperBound(p) {
				b.Fatal("Prop 6.3 inequality (6) violated")
			}
			if p == 0.125 {
				fp = v
			}
		}
	}
	b.ReportMetric(fp, "Fp_at_eighth")
}

func BenchmarkMPathLoad(b *testing.B) {
	mp, err := bqs.NewMPath(32, 15)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var emp float64
	for i := 0; i < b.N; i++ {
		if emp, err = measures.EmpiricalLoad(mp, 2000, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(emp, "empirical_load")
	b.ReportMetric(mp.Load(), "analytic_load")
}

func BenchmarkMPathCrash(b *testing.B) {
	// Proposition 7.3: Monte Carlo F_p at p approaching 1/2 on a 24×24
	// grid with b = 4 (3 paths per direction).
	mp, err := bqs.NewMPath(24, 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var est float64
	for i := 0; i < b.N; i++ {
		mc, err := bqs.CrashProbabilityMC(mp, 0.30, 200, rng)
		if err != nil {
			b.Fatal(err)
		}
		est = mc.Estimate
	}
	b.ReportMetric(est, "Fp_at_0.30")
}

func BenchmarkPercolationCrossing(b *testing.B) {
	// Appendix B: P_p(LR) near the critical probability.
	g, err := lattice.New(24)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	var prob float64
	for i := 0; i < b.N; i++ {
		prob, err = g.CrossingProbability(lattice.LeftRight, 0.45, 1, 100, rng)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(prob, "P_0.45_LR")
}

func BenchmarkComposition(b *testing.B) {
	// Theorem 4.7: parameters of maj3∘maj3∘maj3 built lazily.
	maj, err := bqs.NewMajority(3)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		c2 := bqs.Compose(maj, maj)
		c3 := bqs.Compose(maj, c2)
		if c3.UniverseSize() != 27 || c3.MinQuorumSize() != 8 || c3.MinTransversal() != 8 {
			b.Fatal("Theorem 4.7 algebra broken")
		}
	}
}

func BenchmarkResilienceLoadTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := paper.ResilienceLoadTradeoff()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if failed := r.Failed(); len(failed) > 0 {
				b.Fatalf("%s violates %v", r.System, failed)
			}
		}
	}
}

// --- Micro-benchmarks of the core machinery ---------------------------------

func BenchmarkSelectQuorumThreshold1021(b *testing.B) {
	th, err := bqs.NewMaskingThreshold(1021, 255)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	dead := bqs.SetOf(1, 100, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := th.SelectQuorum(rng, dead); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectQuorumMGrid32(b *testing.B) {
	mg, err := bqs.NewMGrid(32, 15)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	dead := bqs.SetOf(5, 77, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mg.SelectQuorum(rng, dead); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectQuorumMPath32(b *testing.B) {
	mp, err := bqs.NewMPath(32, 7)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	dead := bqs.SetOf(5, 77, 300, 600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mp.SelectQuorum(rng, dead); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectQuorumBoostFPP(b *testing.B) {
	bf, err := bqs.NewBoostFPP(3, 19)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	dead := bqs.SetOf(3, 100, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bf.SelectQuorum(rng, dead); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadLPFano(b *testing.B) {
	fpp, err := newFPP(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bqs.Load(fpp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactCrashFano(b *testing.B) {
	fpp, err := newFPP(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := measures.CrashProbabilityExact(fpp, 0.2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrashMCThreshold(b *testing.B) {
	th, err := bqs.NewMaskingThreshold(101, 25)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := measures.CrashProbabilityMC(th, 0.125, 100, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegisterWriteRead(b *testing.B) {
	sys, err := bqs.NewMaskingThreshold(21, 5)
	if err != nil {
		b.Fatal(err)
	}
	cluster, err := bqs.NewCluster(sys, 5, bqs.WithSeed(10))
	if err != nil {
		b.Fatal(err)
	}
	if err := cluster.InjectFault(bqs.ByzantineFabricate, 0, 7, 14); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	w := cluster.NewClient(1)
	r := cluster.NewClient(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(ctx, "bench"); err != nil {
			b.Fatal(err)
		}
		if _, err := r.Read(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterThroughput is the perf baseline for the concurrent
// quorum-access engine: write+read pairs driven by one client
// (sequential) vs one client per GOMAXPROCS goroutine (parallel), over a
// fault-free Threshold and M-Path cluster. Future PRs compare against
// these numbers.
func BenchmarkClusterThroughput(b *testing.B) {
	build := func(b *testing.B, kind string) (bqs.System, int) {
		b.Helper()
		switch kind {
		case "Threshold":
			sys, err := bqs.NewMaskingThreshold(21, 5)
			if err != nil {
				b.Fatal(err)
			}
			return sys, 5
		case "MPath":
			sys, err := bqs.NewMPath(10, 3)
			if err != nil {
				b.Fatal(err)
			}
			return sys, 3
		default:
			b.Fatalf("unknown system %q", kind)
			return nil, 0
		}
	}
	ctx := context.Background()
	for _, kind := range []string{"Threshold", "MPath"} {
		b.Run(kind+"/sequential", func(b *testing.B) {
			sys, bound := build(b, kind)
			cluster, err := bqs.NewCluster(sys, bound, bqs.WithSeed(20))
			if err != nil {
				b.Fatal(err)
			}
			cl := cluster.NewClient(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.Write(ctx, "bench"); err != nil {
					b.Fatal(err)
				}
				if _, err := cl.Read(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cluster.PeakLoad(), "peak_load")
		})
		b.Run(kind+"/parallel", func(b *testing.B) {
			sys, bound := build(b, kind)
			cluster, err := bqs.NewCluster(sys, bound, bqs.WithSeed(21))
			if err != nil {
				b.Fatal(err)
			}
			var ids atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				cl := cluster.NewClient(int(ids.Add(1)))
				for pb.Next() {
					if err := cl.Write(ctx, "bench"); err != nil {
						b.Error(err)
						return
					}
					if _, err := cl.Read(ctx); err != nil && !errors.Is(err, sim.ErrNoCandidate) {
						b.Error(err)
						return
					}
				}
			})
			b.ReportMetric(cluster.PeakLoad(), "peak_load")
		})
	}
}

// BenchmarkWireThroughput compares the in-memory transport against the
// TCP wire transport on loopback, with the identical Threshold(21,5)
// cluster and write+read workload: the gap is the cost of real sockets
// (syscalls, framing, scheduling), the floor a deployed cluster pays
// before any actual network latency. Run with:
//
//	go test -bench BenchmarkWireThroughput -cpu 1,4,8
func BenchmarkWireThroughput(b *testing.B) {
	const bound = 5
	newSys := func(b *testing.B) bqs.System {
		b.Helper()
		sys, err := bqs.NewMaskingThreshold(21, bound)
		if err != nil {
			b.Fatal(err)
		}
		return sys
	}
	ctx := context.Background()
	workload := func(b *testing.B, cluster *bqs.Cluster) {
		b.Helper()
		var ids atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			cl := cluster.NewClient(int(ids.Add(1)))
			for pb.Next() {
				if err := cl.Write(ctx, "bench"); err != nil {
					b.Error(err)
					return
				}
				if _, err := cl.Read(ctx); err != nil && !errors.Is(err, sim.ErrNoCandidate) {
					b.Error(err)
					return
				}
			}
		})
		b.ReportMetric(cluster.PeakLoad(), "peak_load")
	}

	b.Run("InMemory", func(b *testing.B) {
		cluster, err := bqs.NewCluster(newSys(b), bound, bqs.WithSeed(30))
		if err != nil {
			b.Fatal(err)
		}
		workload(b, cluster)
	})

	b.Run("TCPLoopback", func(b *testing.B) {
		sys := newSys(b)
		replicas := make(map[int]*bqs.Server, sys.UniverseSize())
		routes := make(map[int]string, sys.UniverseSize())
		for i := 0; i < sys.UniverseSize(); i++ {
			replicas[i] = bqs.NewServer(i)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := bqs.NewWireServer(replicas)
		go srv.Serve(lis)
		defer srv.Close()
		for i := range replicas {
			routes[i] = lis.Addr().String()
		}
		tr, err := bqs.DialWire(routes)
		if err != nil {
			b.Fatal(err)
		}
		defer tr.Close()
		cluster, err := bqs.NewCluster(sys, bound, bqs.WithSeed(31),
			bqs.WithTransport(func([]*bqs.Server) bqs.Transport { return tr }))
		if err != nil {
			b.Fatal(err)
		}
		workload(b, cluster)
	})
}

// BenchmarkSessionBatched measures what the Session batcher buys: one
// client pipelines `batch` keyed operations at a time over a 64-key
// space, so the probes of concurrent operations coalesce into batched
// frames (per shard over TCP). batch=1 is the unbatched baseline — same
// session machinery, every probe its own frame — making the ratio a pure
// measurement of frame coalescing. The TCPLoopback variant is the
// acceptance number: batch=32 must beat batch=1 by ≥1.5× ops/s (see
// EXPERIMENTS.md).
func BenchmarkSessionBatched(b *testing.B) {
	ctx := context.Background()
	newSys := func(b *testing.B) bqs.System {
		b.Helper()
		sys, err := bqs.NewMGrid(4, 1)
		if err != nil {
			b.Fatal(err)
		}
		return sys
	}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
	}
	workload := func(b *testing.B, cluster *bqs.Cluster, batch int) {
		b.Helper()
		sess := cluster.NewClient(1).NewSession(bqs.WithSessionBatch(batch))
		defer sess.Close()
		wfs := make([]*bqs.WriteFuture, 0, batch)
		rfs := make([]*bqs.ReadFuture, 0, batch)
		b.ResetTimer()
		for issued := 0; issued < b.N; {
			n := batch
			if b.N-issued < n {
				n = b.N - issued
			}
			wfs, rfs = wfs[:0], rfs[:0]
			for j := 0; j < n; j++ {
				key := keys[(issued+j)%len(keys)]
				if (issued+j)%2 == 0 {
					wfs = append(wfs, sess.WriteAsync(ctx, key, "bench"))
				} else {
					rfs = append(rfs, sess.ReadAsync(ctx, key))
				}
			}
			issued += n
			for _, f := range wfs {
				if err := f.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			for _, f := range rfs {
				if _, err := f.Wait(); err != nil && !errors.Is(err, sim.ErrNoCandidate) {
					b.Fatal(err)
				}
			}
		}
	}
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("InMemory/batch=%d", batch), func(b *testing.B) {
			cluster, err := bqs.NewCluster(newSys(b), 1, bqs.WithSeed(40))
			if err != nil {
				b.Fatal(err)
			}
			workload(b, cluster, batch)
		})
	}
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("TCPLoopback/batch=%d", batch), func(b *testing.B) {
			sys := newSys(b)
			n := sys.UniverseSize()
			routes := make(map[int]string, n)
			// Two shards, so batching also exercises the per-address
			// grouping (one frame per shard per flush).
			for _, ids := range [][]int{{0, n / 2}, {n / 2, n}} {
				replicas := make(map[int]*bqs.Server)
				for i := ids[0]; i < ids[1]; i++ {
					replicas[i] = bqs.NewServer(i)
				}
				lis, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				srv := bqs.NewWireServer(replicas)
				go srv.Serve(lis)
				defer srv.Close()
				for i := ids[0]; i < ids[1]; i++ {
					routes[i] = lis.Addr().String()
				}
			}
			tr, err := bqs.DialWire(routes)
			if err != nil {
				b.Fatal(err)
			}
			defer tr.Close()
			cluster, err := bqs.NewCluster(sys, 1, bqs.WithSeed(41),
				bqs.WithTransport(func([]*bqs.Server) bqs.Transport { return tr }))
			if err != nil {
				b.Fatal(err)
			}
			workload(b, cluster, batch)
		})
	}
}

// --- Extensions beyond the paper's minimum ----------------------------------

func BenchmarkBoostingTable(b *testing.B) {
	// §6 boosting applied to majority, NW-grid, FPP and crumbling wall.
	for i := 0; i < b.N; i++ {
		rows, err := paper.BoostingTable(0.05, 300, 9)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Masks < r.B {
				b.Fatalf("%s: boosting failed to mask b=%d", r.Input, r.B)
			}
		}
	}
}

func BenchmarkStrategyAblation(b *testing.B) {
	var rows []paper.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = paper.StrategyAblation(2000, 11)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(rows[len(rows)-1].Penalty, "biased_penalty")
	}
}

func BenchmarkMPathEdgeAblation(b *testing.B) {
	// Square-lattice edge variant (end of §7): load ratio vs triangular.
	vertex, err := bqs.NewMPath(17, 4)
	if err != nil {
		b.Fatal(err)
	}
	edge, err := systems.NewMPathEdge(13, 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	dead := bqs.NewSet(edge.UniverseSize())
	for i := 0; i < b.N; i++ {
		if _, err := edge.SelectQuorum(rng, dead); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(edge.Load()/vertex.Load(), "edge_vs_vertex_load")
}

func BenchmarkCrashPolynomial(b *testing.B) {
	wall, err := systems.NewCrumblingWall([]int{1, 2, 3, 4}, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		counts, err := measures.CrashPolynomial(wall)
		if err != nil {
			b.Fatal(err)
		}
		if measures.EvalCrashPolynomial(counts, 0.2) <= 0 {
			b.Fatal("polynomial should be positive")
		}
	}
}
