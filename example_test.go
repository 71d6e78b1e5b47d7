package bqs_test

import (
	"context"
	"fmt"
	"math/rand"

	"bqs"
)

// ExampleNewMGrid builds the paper's Figure 1 system and reads off its
// combinatorial parameters.
func ExampleNewMGrid() {
	sys, err := bqs.NewMGrid(7, 3)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("n =", sys.UniverseSize())
	fmt.Println("b =", bqs.MaskingBound(sys))
	fmt.Println("f =", bqs.Resilience(sys))
	fmt.Println("c =", sys.MinQuorumSize())
	// Output:
	// n = 49
	// b = 3
	// f = 5
	// c = 24
}

// ExampleNewRT shows the RT(4,3) critical probability from
// Proposition 5.6.
func ExampleNewRT() {
	rt, err := bqs.NewRT(4, 3, 5)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("n = %d\n", rt.UniverseSize())
	fmt.Printf("p_c = %.4f\n", rt.CriticalProbability())
	// Output:
	// n = 1024
	// p_c = 0.2324
}

// ExampleLoad solves the load LP for the majority system over three
// servers (Proposition 3.9 gives 2/3 for this fair system).
func ExampleLoad() {
	maj, err := bqs.NewExplicit("maj3", 3, []bqs.Set{
		bqs.SetOf(0, 1), bqs.SetOf(0, 2), bqs.SetOf(1, 2),
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	load, _, err := bqs.Load(maj)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("L = %.4f\n", load)
	// Output:
	// L = 0.6667
}

// ExampleCompose demonstrates Theorem 4.7's multiplicative parameters.
func ExampleCompose() {
	maj, err := bqs.NewMajority(3)
	if err != nil {
		fmt.Println(err)
		return
	}
	comp := bqs.Compose(maj, maj)
	fmt.Println("n  =", comp.UniverseSize())
	fmt.Println("c  =", comp.MinQuorumSize())
	fmt.Println("MT =", comp.MinTransversal())
	// Output:
	// n  = 9
	// c  = 4
	// MT = 4
}

// ExampleBoost turns a benign majority system into a 2-masking Byzantine
// quorum system via the Section 6 boosting technique.
func ExampleBoost() {
	maj, err := bqs.NewMajority(5)
	if err != nil {
		fmt.Println(err)
		return
	}
	boosted, err := bqs.Boost(maj, 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("n =", boosted.UniverseSize())
	fmt.Println("b =", bqs.MaskingBound(boosted))
	// Output:
	// n = 45
	// b = 2
}

// ExampleCluster runs the replicated register under Byzantine faults.
func ExampleCluster() {
	sys, err := bqs.NewMaskingThreshold(9, 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	cluster, err := bqs.NewCluster(sys, 2, bqs.WithSeed(1))
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := cluster.InjectFault(bqs.ByzantineFabricate, 0, 4); err != nil {
		fmt.Println(err)
		return
	}
	ctx := context.Background()
	writer := cluster.NewClient(1)
	if err := writer.Write(ctx, "hello"); err != nil {
		fmt.Println(err)
		return
	}
	got, err := cluster.NewClient(2).Read(ctx)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("read:", got.Value)
	// Output:
	// read: hello
}

// ExampleThreshold_CrashProbability evaluates the exact availability of
// the masking threshold at the paper's p = 1/8.
func ExampleThreshold_CrashProbability() {
	th, err := bqs.NewMaskingThreshold(13, 3)
	if err != nil {
		fmt.Println(err)
		return
	}
	fp, err := th.CrashProbability(0.125)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("F_p = %.6f\n", fp)
	// Output:
	// F_p = 0.068959
}

// ExampleMPath_SelectQuorum picks a disjoint-path quorum under failures.
func ExampleMPath_SelectQuorum() {
	mp, err := bqs.NewMPath(9, 4)
	if err != nil {
		fmt.Println(err)
		return
	}
	rng := rand.New(rand.NewSource(3))
	dead := bqs.SetOf(10, 23, 37)
	q, err := mp.SelectQuorum(rng, dead)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("avoids dead:", !q.Intersects(dead))
	fmt.Println("big enough:", q.Count() >= 2*4+1)
	// Output:
	// avoids dead: true
	// big enough: true
}
