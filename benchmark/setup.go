package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"bqs"
)

// instance is one fully built configuration of the program, preloaded and
// ready for traffic. Everything in it comes from the public bqs API.
type instance struct {
	sp       *spec
	n        int // universe size
	minQ     int // c(Q), for the Theorem 4.1 bound
	cluster  *bqs.Cluster
	clients  [callers]*bqs.Client
	sessions [callers]*bqs.Session // nil on blocking workloads
	disks    []*bqs.DiskStore      // nil unless durable
	keys     []string
	dir      string
	// closers undo the set-up, last first.
	closers []func() error
}

// setUp builds the workload's system and cluster on fresh state — opens
// the stores, listens, dials — and preloads every key once with a
// sequential writer. This whole function is what setup_s times. With a
// tracer, its wrappers are installed at the four seams the program already
// exposes; without one nothing is wrapped.
func setUp(ctx context.Context, sp *spec, keys []string, parent string, tr *tracer) (in *instance, err error) {
	in = &instance{sp: sp, keys: keys}
	defer func() {
		if err != nil {
			in.tearDown()
		}
	}()
	if in.dir, err = os.MkdirTemp(parent, "bqs-bench-"+sp.name+"-"); err != nil {
		return in, err
	}
	in.closers = append(in.closers, func() error { return os.RemoveAll(in.dir) })

	var sys maskingSystem
	if sp.mpath {
		sys, err = bqs.NewMPath(10, maskB)
	} else {
		sys, err = bqs.NewMaskingThreshold(13, maskB)
	}
	if err != nil {
		return in, err
	}
	in.n, in.minQ = sys.UniverseSize(), sys.MinQuorumSize()

	newStore := func(id int) (bqs.Store, error) {
		var st bqs.Store = bqs.NewMemStore()
		if sp.durable {
			var opts []bqs.DiskOption
			if tr != nil {
				opts = append(opts, bqs.WithStoreMetrics(tr.reg))
			}
			d, err := bqs.OpenDiskStore(filepath.Join(in.dir, fmt.Sprintf("s%03d", id)), opts...)
			if err != nil {
				return nil, err
			}
			in.disks = append(in.disks, d)
			st = d
		}
		if tr != nil {
			st = &tracedStore{Store: st, tr: tr, server: id}
		}
		return st, nil
	}

	opts := []bqs.ClusterOption{bqs.WithSeed(clusterSeed)}
	switch {
	case sp.tcp:
		wc, err := in.listenAndDial(newStore, tr)
		if err != nil {
			return in, err
		}
		var transport bqs.Transport = wc
		if tr != nil {
			transport = &tracedTransport{inner: wc, tr: tr}
		}
		opts = append(opts, bqs.WithTransport(func([]*bqs.Server) bqs.Transport { return transport }))
	default:
		// The cluster owns the stores it builds and closes them in Close.
		opts = append(opts, bqs.WithStores(newStore))
		if tr != nil {
			opts = append(opts, bqs.WithTransport(func(servers []*bqs.Server) bqs.Transport {
				return &tracedTransport{inner: bqs.NewInMemoryTransport(servers, clusterSeed), tr: tr}
			}))
		}
	}
	var system bqs.System = sys
	if tr != nil {
		system = traceSystem(sys, tr)
	}
	if in.cluster, err = bqs.NewCluster(system, maskB, opts...); err != nil {
		return in, err
	}
	in.closers = append(in.closers, in.cluster.Close)

	for c := range in.clients {
		in.clients[c] = in.cluster.NewClient(c)
		if sp.window > 1 {
			s := in.clients[c].NewSession(bqs.WithSessionBatch(sp.window))
			in.sessions[c] = s
			in.closers = append(in.closers, s.Close)
		}
	}
	// Key i is preloaded by caller i%callers, one write at a time, so the
	// checker knows the author of every value a read can return.
	for i, key := range keys {
		c := i % callers
		if tr != nil {
			tr.preloading(c)
		}
		if err = in.clients[c].WriteKey(ctx, key, makeValue(i, c, preloadSeq)); err != nil {
			return in, fmt.Errorf("preload %s: %w", key, err)
		}
	}
	if tr != nil {
		tr.preloaded()
	}
	return in, nil
}

// listenAndDial hosts the universe on two wire.Server shards listening on
// loopback, each replica over its own store, and dials them.
func (in *instance) listenAndDial(newStore func(int) (bqs.Store, error), tr *tracer) (*bqs.WireClient, error) {
	const shards = 2
	routes := make(map[int]string, in.n)
	for sh := 0; sh < shards; sh++ {
		replicas := make(map[int]*bqs.Server)
		for id := sh * in.n / shards; id < (sh+1)*in.n/shards; id++ {
			st, err := newStore(id)
			if err != nil {
				return nil, err
			}
			in.closers = append(in.closers, st.Close)
			replicas[id] = bqs.NewServer(id, bqs.WithStore(st))
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		var sopts []bqs.WireServerOption
		if tr != nil {
			lis = &countingListener{Listener: lis, tr: tr}
			sopts = append(sopts, bqs.WithWireServerMetrics(tr.reg))
		}
		srv := bqs.NewWireServer(replicas, sopts...)
		served := make(chan error, 1)
		go func() { served <- srv.Serve(lis) }()
		in.closers = append(in.closers, func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			err := srv.Shutdown(ctx)
			if serr := <-served; err == nil && !errors.Is(serr, bqs.ErrWireServerClosed) {
				err = serr
			}
			return err
		})
		for id := range replicas {
			routes[id] = lis.Addr().String()
		}
	}
	var dopts []bqs.WireDialOption
	if tr != nil {
		dopts = append(dopts, bqs.WithWireMetrics(tr.reg))
	}
	wc, err := bqs.DialWire(routes, dopts...)
	if err != nil {
		return nil, err
	}
	// Closed before the servers shut down, so their drain finds idle
	// connections.
	in.closers = append(in.closers, wc.Close)
	return wc, nil
}

// tearDown releases everything setUp acquired, newest first, and removes
// the instance's directory.
func (in *instance) tearDown() error {
	var first error
	for i := len(in.closers) - 1; i >= 0; i-- {
		if err := in.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	in.closers = nil
	return first
}
