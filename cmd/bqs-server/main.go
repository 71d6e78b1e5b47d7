// bqs-server hosts a shard of the quorum universe over TCP: one
// sim.Server replica per global index in -servers, reachable through the
// wire protocol. Start one daemon per shard and point bqs-client's
// -routes at them; together they form a distributed deployment of the
// [MR98a] replicated shared variable, whose measured load the paper's
// Theorem 4.1 bounds.
//
// Usage:
//
//	bqs-server -listen :7000 -servers 0-24
//	bqs-server -listen :7001 -servers 25-49 -byzantine 30,41 -crashed 27
//	bqs-server -listen :7002 -servers 50-74 -data-dir /var/lib/bqs
//
// Fault injection is server-side, as in a real deployment: -byzantine
// and -crashed take comma-separated global indices (which must fall
// inside this daemon's shard) and set those replicas' behaviors before
// serving. SIGINT/SIGTERM trigger a graceful shutdown.
//
// With -data-dir each replica persists its registers to a WAL+snapshot
// store under DIR/server-NNNN, acknowledging a write only after it is
// durable, and recovers that state on startup — kill -9 the daemon,
// restart it with the same -data-dir, and the shard rejoins with every
// acknowledged write intact (the recovery summary is printed per
// replica). -fsync=false trades tail durability for throughput.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"bqs/internal/obs"
	"bqs/internal/sim"
	"bqs/internal/store"
	"bqs/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bqs-server:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", ":7000", "TCP listen address")
	servers := flag.String("servers", "0-24", "inclusive global server index range this daemon hosts, e.g. 0-24")
	byzantine := flag.String("byzantine", "", "comma-separated global indices to make Byzantine (fabricating)")
	crashed := flag.String("crashed", "", "comma-separated global indices to crash")
	grace := flag.Duration("grace", 5*time.Second, "graceful shutdown budget on SIGINT/SIGTERM")
	dataDir := flag.String("data-dir", "", "durable state root: each replica persists to DIR/server-NNNN and recovers it on restart (empty = in-memory)")
	fsync := flag.Bool("fsync", true, "fsync each durable group commit (only with -data-dir)")
	metricsAddr := flag.String("metrics-addr", "", "serve live telemetry on this address: /metrics (Prometheus), /vars, /events, /debug/pprof")
	flag.Parse()

	ids, err := wire.ParseIDRange(*servers)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	if *metricsAddr != "" {
		ms, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer ms.Close()
		fmt.Printf("bqs-server: metrics on http://%s/metrics (also /vars, /events, /debug/pprof)\n", ms.Addr())
	}
	replicas := make(map[int]*sim.Server, len(ids))
	for _, id := range ids {
		var opts []sim.ServerOption
		if *dataDir != "" {
			st, err := store.Open(filepath.Join(*dataDir, fmt.Sprintf("server-%04d", id)),
				store.WithFsync(*fsync), store.WithMetrics(reg))
			if err != nil {
				return fmt.Errorf("server %d: %w", id, err)
			}
			defer st.Close()
			fmt.Printf("bqs-server: server %d recovered: %s\n", id, st.Recovered())
			opts = append(opts, sim.WithStore(st))
		}
		replicas[id] = sim.NewServer(id, opts...)
	}
	if err := inject(replicas, *byzantine, sim.ByzantineFabricate); err != nil {
		return err
	}
	if err := inject(replicas, *crashed, sim.Crashed); err != nil {
		return err
	}

	srv := wire.NewServer(replicas, wire.WithServerMetrics(reg))
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*listen) }()
	fmt.Printf("bqs-server: hosting servers %s on %s (byzantine=[%s] crashed=[%s])\n",
		*servers, *listen, *byzantine, *crashed)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err // listener died before any signal
	case s := <-sig:
		fmt.Printf("bqs-server: %v — draining (budget %v)\n", s, *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		fmt.Println("bqs-server: bye")
		return nil
	}
}

// inject applies behavior to the named replicas, rejecting indices this
// shard does not host.
func inject(replicas map[int]*sim.Server, spec string, behavior sim.Behavior) error {
	if spec == "" {
		return nil
	}
	for _, field := range strings.Split(spec, ",") {
		ids, err := wire.ParseIDRange(strings.TrimSpace(field))
		if err != nil {
			return err
		}
		for _, id := range ids {
			rep, ok := replicas[id]
			if !ok {
				return fmt.Errorf("server %d is not in this shard", id)
			}
			rep.SetBehavior(behavior)
		}
	}
	return nil
}
