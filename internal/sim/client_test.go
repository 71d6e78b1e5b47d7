package sim

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
)

// staggeredTimestamps answers every OpReadTimestamps probe with a
// timestamp distinct to the server — what a quorum reports when it
// catches many writes in flight, each landed at a different member — and
// records which servers each kind of probe reached.
type staggeredTimestamps struct {
	inner Transport

	mu     sync.Mutex
	probed map[Op][]int
}

func (st *staggeredTimestamps) Invoke(ctx context.Context, server int, req Request) (Response, error) {
	st.mu.Lock()
	st.probed[req.Op] = append(st.probed[req.Op], server)
	st.mu.Unlock()
	if req.Op == OpReadTimestamps {
		return Response{OK: true, Value: TaggedValue{TS: Timestamp{Seq: int64(100 + server), Writer: server}}}, nil
	}
	return st.inner.Invoke(ctx, server, req)
}

// TestTimestampPhaseIsWaitFree pins ROADMAP item 1: a timestamp quorum on
// which no two members agree must not stall the write. Under the old b+1
// identical-votes rule this write spun through MaxRetries picks and
// failed with ErrRetriesExhausted; the order statistic is defined for
// every complete reply set, so one pick per phase suffices.
func TestTimestampPhaseIsWaitFree(t *testing.T) {
	const b = 3
	var tr *staggeredTimestamps
	c, err := NewCluster(mustThreshold(t, b), b, WithSeed(5),
		WithTransport(func(servers []*Server) Transport {
			tr = &staggeredTimestamps{inner: NewInMemoryTransport(servers, 5), probed: make(map[Op][]int)}
			return tr
		}))
	if err != nil {
		t.Fatal(err)
	}
	const id = 7
	if err := c.NewClient(id).Write(ctx, "contended"); err != nil {
		t.Fatalf("write over a quorum with all-distinct timestamps: %v", err)
	}
	asked, stored := tr.probed[OpReadTimestamps], tr.probed[OpWrite]
	quorum := mustThreshold(t, b).MinQuorumSize()
	if len(asked) != quorum || len(stored) != quorum {
		t.Fatalf("probes: %d timestamp + %d write, want one quorum of %d each (no re-pick)", len(asked), len(stored), quorum)
	}
	// Server s reported Seq 100+s, so the (b+1)-th largest report is the
	// (b+1)-th largest server id asked.
	sort.Sort(sort.Reverse(sort.IntSlice(asked)))
	want := Timestamp{Seq: int64(100+asked[b]) + 1, Writer: id}
	for _, s := range stored {
		if got := c.Server(s).SnapshotKey(DefaultKey); got.TS != want || got.Value != "contended" {
			t.Fatalf("server %d stored %+v, want timestamp %+v = (b+1)-th largest report + 1", s, got, want)
		}
	}
}

// TestAcceptanceRules checks the masking reply-acceptance rule as the
// pure functions it is: what a complete quorum's replies make a client
// believe, with no cluster behind them. Every case runs on its reply
// slice and on the reverse of it: an in-memory phase gathers replies in
// ascending server order, the parallel one in arrival order, and the rule
// must believe the same thing either way.
func TestAcceptanceRules(t *testing.T) {
	const b = 2
	ts := func(seq int64) Timestamp { return Timestamp{Seq: seq, Writer: 1} }
	forged := Timestamp{Seq: 1 << 40, Writer: -1}
	// replies builds a reply set from (count, value) groups.
	type group struct {
		n  int
		tv TaggedValue
	}
	replies := func(groups ...group) []Response {
		var out []Response
		for _, g := range groups {
			for i := 0; i < g.n; i++ {
				out = append(out, Response{OK: true, Value: g.tv})
			}
		}
		return out
	}
	honest := TaggedValue{Value: "v5", TS: ts(5)}
	older := TaggedValue{Value: "v3", TS: ts(3)}
	fake := TaggedValue{Value: FabricatedValue, TS: forged}

	cases := []struct {
		name    string
		rule    masking
		replies []Response
		wantTS  Timestamp
		wantVal TaggedValue
		wantOK  bool // false: the rule believes no reply
	}{
		{"masking: b colluders cannot move the clock or the value",
			masking{b}, replies(group{b, fake}, group{2*b + 1, honest}), ts(5), honest, true},
		{"masking: b+1 colluders can (the 2b+1 bound of Definition 3.5)",
			masking{b}, replies(group{b + 1, fake}, group{2 * b, honest}), forged, fake, true},
		{"masking: a write at b+1 intersection members is dominated, b stale and the rest behind",
			masking{b}, replies(group{b + 1, honest}, group{b, TaggedValue{}}, group{2, older}), ts(5), honest, true},
		{"masking: all-distinct timestamps still yield the (b+1)-th largest, and no value",
			masking{b}, replies(group{1, TaggedValue{Value: "a", TS: ts(9)}}, group{1, TaggedValue{Value: "b", TS: ts(8)}},
				group{1, TaggedValue{Value: "c", TS: ts(7)}}, group{1, TaggedValue{Value: "d", TS: ts(6)}}), ts(7), TaggedValue{}, false},
		{"masking: never-written key reads as the empty register", masking{b}, replies(group{2*b + 1, TaggedValue{}}), Timestamp{}, TaggedValue{}, true},
		{"masking: empty reply set", masking{b}, replies(), Timestamp{}, TaggedValue{}, false},
		{"masking: b past the stack buffer", masking{9}, replies(group{9, fake}, group{10, honest}), ts(5), honest, true},
	}
	for _, tc := range cases {
		reversed := slices.Clone(tc.replies)
		slices.Reverse(reversed)
		for _, order := range []struct {
			name    string
			replies []Response
		}{{"as built", tc.replies}, {"reversed", reversed}} {
			if got := tc.rule.timestamp(order.replies); got != tc.wantTS {
				t.Errorf("%s (%s): timestamp = %+v, want %+v", tc.name, order.name, got, tc.wantTS)
			}
			got, ok := tc.rule.value(order.replies)
			if ok != tc.wantOK || got != tc.wantVal {
				t.Errorf("%s (%s): value = %+v (believed %v), want %+v (believed %v)", tc.name, order.name, got, ok, tc.wantVal, tc.wantOK)
			}
		}
	}
}

// TestMaskingValue pins the b-masking vote: the newest pair with b+1
// identical replies wins, and a pair's votes are counted only for that
// exact value and timestamp.
func TestMaskingValue(t *testing.T) {
	tv := func(v string, seq int64) TaggedValue {
		return TaggedValue{Value: v, TS: Timestamp{Seq: seq, Writer: 1}}
	}
	replies := func(tvs ...TaggedValue) []Response {
		out := make([]Response, len(tvs))
		for i, v := range tvs {
			out[i] = Response{OK: true, Value: v}
		}
		return out
	}
	// Eleven distinct pairs, more than the tally's stack array holds, with
	// the vouched pair first seen after the spill.
	var spill []TaggedValue
	for i := range 9 {
		spill = append(spill, tv(fmt.Sprint("lone", i), int64(10+i)))
	}
	spill = append(spill, tv("old", 3), tv("vouched", 5), tv("vouched", 5), tv("old", 3))
	for _, tc := range []struct {
		name    string
		b       int
		replies []Response
		want    TaggedValue
		found   bool
	}{
		{"more than 8 distinct pairs", 1, replies(spill...), tv("vouched", 5), true},
		{"exactly b+1 votes", 2, replies(tv("a", 7), tv("a", 7), tv("a", 7), tv("b", 9), tv("b", 9)), tv("a", 7), true},
		{"equal timestamps, different values", 2, replies(tv("a", 4), tv("a", 4), tv("b", 4), tv("b", 4), tv("c", 4)), TaggedValue{}, false},
		{"equal timestamps, one vouched", 1, replies(tv("a", 4), tv("b", 4), tv("b", 4)), tv("b", 4), true},
		{"newest vouched pair wins", 1, replies(tv("a", 4), tv("a", 4), tv("b", 6), tv("b", 6), tv("c", 8)), tv("b", 6), true},
		{"no pair with b+1 votes", 2, replies(tv("a", 1), tv("a", 1), tv("b", 2), tv("b", 2), tv("c", 3)), TaggedValue{}, false},
	} {
		got, found := masking{tc.b}.value(tc.replies)
		if got != tc.want || found != tc.found {
			t.Errorf("%s: value = %+v, %v; want %+v, %v", tc.name, got, found, tc.want, tc.found)
		}
	}
}
