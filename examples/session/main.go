// Session: the keyed, asynchronous face of the quorum data plane. A
// cluster no longer holds one register but a keyed object space, and a
// Session pipelines many keyed operations at once — ReadAsync/WriteAsync
// return futures, and over a transport with a per-frame cost the probes
// of every operation in flight coalesce into batched frames (per
// destination, flushed when full or once nobody else is about to
// enqueue). The demo writes a small product catalog with masked
// Byzantine faults present, reads it back concurrently, shows per-key
// isolation, and compares the live load against the LP-optimal L(Q).
package main

import (
	"context"
	"fmt"
	"log"

	"bqs"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	const b = 1
	sys, err := bqs.NewMGrid(4, b) // 16 servers, quorums of 2 rows + 2 columns
	if err != nil {
		return err
	}
	cluster, err := bqs.NewCluster(sys, b, bqs.WithSeed(7), bqs.WithOptimalStrategy())
	if err != nil {
		return err
	}
	fmt.Printf("cluster: %s, n=%d, masking b=%d\n", sys.Name(), sys.UniverseSize(), b)

	// One fabricator is within the masking bound; every keyed read below
	// still returns only vouched values.
	if err := cluster.InjectFault(bqs.ByzantineFabricate, 5); err != nil {
		return err
	}
	fmt.Println("faults: server 5 fabricates (within b)")

	// A writer session: 8 keyed writes issued together; their quorum
	// probes share frames instead of paying 8 separate fan-outs.
	writer := cluster.NewClient(1)
	ws := writer.NewSession(bqs.WithSessionBatch(8))
	items := []string{"anvil", "bolt", "cog", "dynamo", "eyelet", "flange", "gasket", "hinge"}
	futures := make([]*bqs.WriteFuture, len(items))
	for i, name := range items {
		futures[i] = ws.WriteAsync(ctx, fmt.Sprintf("sku/%s", name), fmt.Sprintf("%s: %d in stock", name, 10*(i+1)))
	}
	for i, f := range futures {
		if err := f.Wait(); err != nil {
			return fmt.Errorf("write %s: %w", items[i], err)
		}
	}
	if err := ws.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d keys through one batched session\n", len(items))

	// A reader session: all keys read back concurrently.
	reader := cluster.NewClient(2)
	rs := reader.NewSession(bqs.WithSessionBatch(8))
	defer rs.Close()
	reads := make([]*bqs.ReadFuture, len(items))
	for i, name := range items {
		reads[i] = rs.ReadAsync(ctx, fmt.Sprintf("sku/%s", name))
	}
	for i, f := range reads {
		got, err := f.Wait()
		if err != nil {
			return fmt.Errorf("read %s: %w", items[i], err)
		}
		fmt.Printf("  sku/%-8s → %q\n", items[i], got.Value)
	}

	// Per-key isolation: a write to one key never disturbs another. The
	// per-key timestamp protocol means this read still sees cog's value.
	if err := rs.Write(ctx, "sku/cog", "cog: RECALLED"); err != nil {
		return err
	}
	gotCog, err := rs.Read(ctx, "sku/cog")
	if err != nil {
		return err
	}
	gotBolt, err := rs.Read(ctx, "sku/bolt")
	if err != nil {
		return err
	}
	fmt.Printf("after updating sku/cog: cog=%q, bolt=%q (independent registers)\n",
		gotCog.Value, gotBolt.Value)

	// Load is per quorum access and key-oblivious (Definition 3.8): even
	// with every operation keyed, the peak converges to the LP L(Q).
	fmt.Printf("\npeak server load %.3f vs LP L(Q) = %.3f\n",
		cluster.PeakLoad(), cluster.StrategyLoad())
	return nil
}
