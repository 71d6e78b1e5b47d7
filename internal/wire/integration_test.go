package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"bqs/internal/obs"
	"bqs/internal/sim"
	"bqs/internal/store"
	"bqs/internal/systems"
)

// startShard serves the given replicas on a fresh loopback listener and
// returns its address. The server is shut down when the test ends.
func startShard(t testing.TB, replicas map[int]*sim.Server, opts ...ServerOption) (string, *Server) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(replicas, opts...)
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return lis.Addr().String(), srv
}

// newReplicas builds fresh sim.Servers for the given global ids.
func newReplicas(ids []int) map[int]*sim.Server {
	m := make(map[int]*sim.Server, len(ids))
	for _, id := range ids {
		m[id] = sim.NewServer(id)
	}
	return m
}

// TestLoopbackMGridCluster is the acceptance scenario: an MGrid(5,1)
// universe (25 servers, masking b = 1) sharded across three TCP servers
// on loopback, with one crashed and b Byzantine replicas injected
// server-side. Concurrent clients read and write the replicated variable
// through wire.Dial transports; masking must hold exactly as over the
// in-memory transport — no read ever surfaces a fabricated value.
func TestLoopbackMGridCluster(t *testing.T) {
	sys, err := systems.NewMGrid(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	const b = 1
	n := sys.UniverseSize() // 25

	// Shard the universe across three daemons: 0-8, 9-16, 17-24.
	shards := [][]int{}
	for lo := 0; lo < n; lo += 9 {
		hi := lo + 9
		if hi > n {
			hi = n
		}
		ids := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			ids = append(ids, i)
		}
		shards = append(shards, ids)
	}
	routes := make(map[int]string)
	replicas := make(map[int]*sim.Server)
	for _, ids := range shards {
		reps := newReplicas(ids)
		addr, _ := startShard(t, reps)
		for id, rep := range reps {
			routes[id] = addr
			replicas[id] = rep
		}
	}
	if err := CheckCoverage(routes, n); err != nil {
		t.Fatal(err)
	}

	// Fault injection happens on the server side, as it would in a real
	// deployment: one crash plus b fabricators, in different shards.
	replicas[3].SetBehavior(sim.Crashed)
	replicas[12].SetBehavior(sim.ByzantineFabricate)

	tr, err := Dial(routes)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cluster, err := sim.NewCluster(sys, b,
		sim.WithTransport(func([]*sim.Server) sim.Transport { return tr }))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const clients, ops = 4, 12
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := cluster.NewClient(id)
			for op := 0; op < ops; op++ {
				if op%2 == 0 {
					if err := cl.Write(ctx, fmt.Sprintf("c%d-op%d", id, op)); err != nil {
						errs <- fmt.Errorf("client %d write %d: %w", id, op, err)
						return
					}
					continue
				}
				tv, err := cl.Read(ctx)
				if err != nil && !errors.Is(err, sim.ErrNoCandidate) {
					errs <- fmt.Errorf("client %d read %d: %w", id, op, err)
					return
				}
				if err == nil && strings.HasPrefix(tv.Value, sim.FabricatedValue) {
					errs <- fmt.Errorf("client %d read %d surfaced fabricated value %q", id, op, tv.Value)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// A final read must return one of the written values, vouched past the
	// masking bound, through real sockets.
	tv, err := cluster.NewClient(99).Read(ctx)
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	if !strings.HasPrefix(tv.Value, "c") {
		t.Fatalf("final read returned %q, want a client-written value", tv.Value)
	}
	if peak := cluster.PeakLoad(); peak <= 0 || peak > 1 {
		t.Fatalf("peak load %v outside (0,1]", peak)
	}
}

// TestLoopbackWriteTimestamps runs masking writes over two loopback
// shards, whose timestamp phase now draws timestamp-only replies, with b
// Byzantine replicas reporting inflated timestamps. Writers take turns,
// so each write must pick exactly the next sequence number: one more than
// the last completed write, under the writer's own id.
func TestLoopbackWriteTimestamps(t *testing.T) {
	const b = 2
	sys, err := systems.NewMaskingThreshold(4*b+1, b)
	if err != nil {
		t.Fatal(err)
	}
	routes := make(map[int]string)
	replicas := make(map[int]*sim.Server)
	for _, ids := range [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8}} {
		reps := newReplicas(ids)
		addr, _ := startShard(t, reps)
		for id, rep := range reps {
			routes[id] = addr
			replicas[id] = rep
		}
	}
	replicas[1].SetBehavior(sim.ByzantineFabricate)
	replicas[6].SetBehavior(sim.ByzantineEquivocate)
	tr, err := Dial(routes)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cluster, err := sim.NewCluster(sys, b, sim.WithTransport(func([]*sim.Server) sim.Transport { return tr }))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	writers := []*sim.Client{cluster.NewClient(1), cluster.NewClient(2), cluster.NewClient(3)}
	reader := cluster.NewClient(9)
	for i := range 9 {
		w := i % len(writers)
		value := fmt.Sprintf("v%d", i)
		if err := writers[w].WriteKey(ctx, "k", value); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		got, err := reader.ReadKey(ctx, "k")
		if err != nil {
			t.Fatalf("read after write %d: %v", i, err)
		}
		want := sim.TaggedValue{Value: value, TS: sim.Timestamp{Seq: int64(i + 1), Writer: w + 1}}
		if got != want {
			t.Fatalf("after write %d read %+v, want %+v", i, got, want)
		}
	}
}

// TestSharedStringsAcrossHandlers drives a shard whose stores are opaque,
// so each write is applied on a goroutine of its own and the strings its
// read loop shares between frames reach several goroutines at once. Each caller
// writes its own key with a fresh value to every replica in one phase,
// then reads it back in another: a phase's frames repeat one key and one
// value, and the callers' phases interleave on one connection, so the
// decoders alternate between reuse hits and misses. Every reply must
// carry exactly what its caller last wrote.
func TestSharedStringsAcrossHandlers(t *testing.T) {
	reps := make(map[int]*sim.Server)
	members := []int{0, 1, 2, 3, 4}
	for _, id := range members {
		reps[id] = sim.NewServer(id, sim.WithStore(opaqueStore{store.NewMem()}))
	}
	addr, _ := startShard(t, reps)
	routes := make(map[int]string)
	for _, id := range members {
		routes[id] = addr
	}
	cl, err := Dial(routes)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for c := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", c)
			out := make([]sim.Response, len(members))
			for i := range 50 {
				tv := sim.TaggedValue{Value: fmt.Sprintf("%s-value-%d", key, i), TS: sim.Timestamp{Seq: int64(i + 1), Writer: c}}
				if err := cl.InvokePhase(ctx, members, sim.Request{Op: sim.OpWrite, Key: key, Value: tv}, out); err != nil {
					t.Error(err)
					return
				}
				if err := cl.InvokePhase(ctx, members, sim.Request{Op: sim.OpRead, Key: key, ReaderID: c}, out); err != nil {
					t.Error(err)
					return
				}
				for m, resp := range out {
					if !resp.OK || resp.Value != tv {
						t.Errorf("caller %d round %d member %d read %+v, want %+v", c, i, m, resp, tv)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestWireReconnect kills one shard mid-run (its single server starts
// answering OK: false, so quorums re-select around it), then restarts it
// on the same address and verifies the client transport re-establishes
// the connection and uses the server again.
func TestWireReconnect(t *testing.T) {
	sys, err := systems.NewMaskingThreshold(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Shard A: servers 0-3; shard B: server 4, on its own daemon.
	repsA := newReplicas([]int{0, 1, 2, 3})
	addrA, _ := startShard(t, repsA)
	lisB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB := lisB.Addr().String()
	srvB := NewServer(newReplicas([]int{4}))
	go srvB.Serve(lisB)

	routes := map[int]string{0: addrA, 1: addrA, 2: addrA, 3: addrA, 4: addrB}
	tr, err := Dial(routes, func(c *dialConfig) { c.redialBackoff = 10 * time.Millisecond })
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cluster, err := sim.NewCluster(sys, 1,
		sim.WithTransport(func([]*sim.Server) sim.Transport { return tr }))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cl := cluster.NewClient(1)
	if err := cl.Write(ctx, "before"); err != nil {
		t.Fatalf("write with all shards up: %v", err)
	}

	// Kill shard B. Probes to server 4 now answer OK: false; the 4-of-5
	// quorums that avoid it keep the register available.
	srvB.Close()
	if resp, err := tr.Invoke(ctx, 4, sim.Request{Op: sim.OpRead, ReaderID: 1}); err != nil || resp.OK {
		t.Fatalf("probe to killed shard: resp=%+v err=%v, want OK:false and nil error", resp, err)
	}
	if err := cl.Write(ctx, "during"); err != nil {
		t.Fatalf("write with shard B down: %v", err)
	}

	// Restart shard B on the same address with a fresh replica. After the
	// redial backoff the transport must reconnect transparently.
	lisB2, err := net.Listen("tcp", addrB)
	if err != nil {
		t.Fatalf("rebind %s: %v", addrB, err)
	}
	srvB2 := NewServer(newReplicas([]int{4}))
	go srvB2.Serve(lisB2)
	defer srvB2.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := tr.Invoke(ctx, 4, sim.Request{Op: sim.OpRead, ReaderID: 1})
		if err != nil {
			t.Fatalf("probe to restarted shard: %v", err)
		}
		if resp.OK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("transport never reconnected to the restarted shard")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cl.Write(ctx, "after"); err != nil {
		t.Fatalf("write after restart: %v", err)
	}
	tv, err := cluster.NewClient(2).Read(ctx)
	if err != nil {
		t.Fatalf("read after restart: %v", err)
	}
	if tv.Value != "after" {
		t.Fatalf("read %q, want %q", tv.Value, "after")
	}
}

// TestWirePipelining verifies many concurrent operations share one
// connection: pool size 1, many goroutines, all must complete.
func TestWirePipelining(t *testing.T) {
	reps := newReplicas([]int{0})
	addr, _ := startShard(t, reps)
	tr, err := Dial(map[int]string{0: addr}, WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const goroutines, perG = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tv := sim.TaggedValue{Value: "v", TS: sim.Timestamp{Seq: int64(g*perG + i), Writer: g}}
				resp, err := tr.Invoke(ctx, 0, sim.Request{Op: sim.OpWrite, Value: tv})
				if err != nil || !resp.OK {
					errs <- fmt.Errorf("goroutine %d op %d: resp=%+v err=%v", g, i, resp, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if tv := reps[0].SnapshotKey(sim.DefaultKey); tv.TS.Seq != goroutines*perG-1 {
		t.Fatalf("server saw highest seq %d, want %d", tv.TS.Seq, goroutines*perG-1)
	}
}

// TestWireInvokeContract pins the transport error contract: ctx done is
// an error, unrouted servers are an error, probes to a live daemon for a
// server it does not host — and probes no frame can carry — are OK: false
// (suspicion, not abort).
func TestWireInvokeContract(t *testing.T) {
	addr, _ := startShard(t, newReplicas([]int{0}))
	reg := obs.NewRegistry()
	tr, err := Dial(map[int]string{0: addr, 1: addr}, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx := context.Background()

	if _, err := tr.Invoke(ctx, 9, sim.Request{Op: sim.OpRead}); err == nil {
		t.Fatal("Invoke on an unrouted server must abort with an error")
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := tr.Invoke(canceled, 0, sim.Request{Op: sim.OpRead}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Invoke with done ctx: err=%v, want context.Canceled", err)
	}
	// Server 1 is routed to a daemon that hosts only server 0: misroutes
	// read as crashes so quorum re-selection can work around them.
	resp, err := tr.Invoke(ctx, 1, sim.Request{Op: sim.OpRead})
	if err != nil || resp.OK {
		t.Fatalf("misrouted probe: resp=%+v err=%v, want OK:false and nil error", resp, err)
	}
	// An undefined opcode is rejected by the replica, not the stream.
	resp, err = tr.Invoke(ctx, 0, sim.Request{Op: sim.Op(99)})
	if err != nil || resp.OK {
		t.Fatalf("unknown-op probe: resp=%+v err=%v, want OK:false and nil error", resp, err)
	}
	// A value one byte past MaxValueLen cannot travel: keyed or keyless,
	// the probe reads as unresponsive — never an abort — and nothing is
	// sent.
	longest := sim.TaggedValue{Value: strings.Repeat("v", MaxValueLen), TS: sim.Timestamp{Seq: 1, Writer: 1}}
	huge := sim.TaggedValue{Value: longest.Value + "v", TS: sim.Timestamp{Seq: 2, Writer: 1}}
	longKey := strings.Repeat("k", MaxKeyLen)
	for _, key := range []string{"", "k", longKey} {
		resp, err = tr.Invoke(ctx, 0, sim.Request{Op: sim.OpWrite, Key: key, Value: huge})
		if err != nil || resp.OK {
			t.Fatalf("oversized write under a %d-byte key: resp.OK=%v err=%v, want OK:false and nil error", len(key), resp.OK, err)
		}
	}
	// Exactly MaxValueLen travels both ways, even under the longest key.
	resp, err = tr.Invoke(ctx, 0, sim.Request{Op: sim.OpWrite, Key: longKey, Value: longest})
	if err != nil || !resp.OK {
		t.Fatalf("MaxValueLen write under a MaxKeyLen key: resp.OK=%v err=%v", resp.OK, err)
	}
	resp, err = tr.Invoke(ctx, 0, sim.Request{Op: sim.OpRead, Key: longKey})
	if err != nil || !resp.OK || resp.Value != longest {
		t.Fatalf("MaxValueLen read back: OK=%v err=%v, %d value bytes", resp.OK, err, len(resp.Value.Value))
	}
	// The connection survived all of the above.
	resp, err = tr.Invoke(ctx, 0, sim.Request{Op: sim.OpRead})
	if err != nil || !resp.OK {
		t.Fatalf("healthy probe after misroutes: resp=%+v err=%v", resp, err)
	}
	if v, _ := reg.Value("bqs_wire_dials_total", "result", "ok"); v != 1 {
		t.Fatalf("the contract cases cost %v connections, want the 1 they all share", v)
	}
}

// TestServerGracefulShutdown verifies Shutdown unblocks Serve with
// ErrServerClosed, drains in-flight work, and leaves the address
// rebindable.
func TestServerGracefulShutdown(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(newReplicas([]int{0}))
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	tr, err := Dial(map[int]string{0: lis.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx := context.Background()
	if resp, err := tr.Invoke(ctx, 0, sim.Request{Op: sim.OpRead}); err != nil || !resp.OK {
		t.Fatalf("probe before shutdown: resp=%+v err=%v", resp, err)
	}

	sdCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sdCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-serveErr:
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	// The shut-down server now reads as crashed.
	if resp, err := tr.Invoke(ctx, 0, sim.Request{Op: sim.OpRead}); err != nil || resp.OK {
		t.Fatalf("probe after shutdown: resp=%+v err=%v, want OK:false", resp, err)
	}
	// And its address is immediately reusable.
	lis2, err := net.Listen("tcp", lis.Addr().String())
	if err != nil {
		t.Fatalf("rebind after shutdown: %v", err)
	}
	lis2.Close()
}

// TestServerRejectsGarbage verifies a malformed stream — or a well-framed
// payload under a tag this build does not speak, the retired ones
// included — just drops the connection without wedging the server.
func TestServerRejectsGarbage(t *testing.T) {
	addr, _ := startShard(t, newReplicas([]int{0}))
	for name, stream := range map[string][]byte{
		"garbage-prefix": {0xff, 0xff, 0xff, 0xff, 1, 2, 3},
		"unknown-tag":    {0, 0, 0, 1, 0x7f},
		// The retired frames, byte for byte as their last build sent them:
		// a keyless read of server 0, its answer, a version-2 hello.
		"retired-request":  append([]byte{0, 0, 0, 42, 0x51, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2}, make([]byte, 28)...),
		"retired-response": append([]byte{0, 0, 0, 30, 0x52, 0, 0, 0, 0, 0, 0, 0, 1, 1}, make([]byte, 20)...),
		"retired-hello":    {0, 0, 0, 2, 0x54, 2},
	} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(stream); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1)
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := nc.Read(buf); err == nil {
			t.Fatalf("%s: server answered instead of dropping the connection", name)
		} else if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: server kept the connection open", name)
		}
		nc.Close()
	}
	// The server still serves well-formed clients.
	tr, err := Dial(map[int]string{0: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if resp, err := tr.Invoke(context.Background(), 0, sim.Request{Op: sim.OpRead}); err != nil || !resp.OK {
		t.Fatalf("probe after garbage conn: resp=%+v err=%v", resp, err)
	}
}
