package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
)

// callers is the number of closed-loop application threads: each waits
// for its reply before it sends the next request (durable_batch keeps a
// window of futures open instead, see spec.window). Two callers on
// GOMAXPROCS=2 keep both cores busy without queueing behind the scheduler.
const callers = 2

// maskB is the masking bound b of every workload's quorum system.
const maskB = 3

// clusterSeed is the fixed WithSeed of every cluster: -seed drives the
// generated schedule only, so two seeds differ in their inputs and never
// in the program's own randomness.
const clusterSeed = 7

// scheduleLen is the length of one caller's pre-generated schedule; the
// caller cycles through it, so the generator's heap is the same size
// however long the run is.
const scheduleLen = 1 << 18

// valueLen is the size of every written value.
const valueLen = 64

// spec is one workload: a configuration of the layers plus a traffic mix.
type spec struct {
	name string
	why  string
	// mpath selects M-Path(d=10,b=3) over n=100 servers; otherwise the
	// system is Threshold(n=13,b=3).
	mpath bool
	// tcp puts the servers behind two in-process wire.Server shards on
	// loopback; otherwise probes travel over the in-memory transport.
	tcp bool
	// durable backs every server with store.Disk (fsync on); otherwise
	// store.Mem.
	durable bool
	// window is how many operations a caller keeps in flight: 1 is the
	// blocking WriteKey/ReadKey path, more goes through one Session per
	// caller with that batch size.
	window     int
	writeShare float64
	// keys is sized so that one set-up (which preloads every key) takes
	// 0.5–3 s: a 60 ms set-up varied 30 % from run to run.
	keys int
}

var specs = []spec{
	{
		name: "mem_kv",
		why:  "sim client and server do nearly all the work, wire and store.Disk none: the no-change control for transport and storage work",
		keys: 16384, window: 1, writeShare: 0.5,
	},
	{
		name: "tcp_kv",
		why:  "same system and mix over two loopback wire.Server shards, one frame per probe: wire dominates CPU and allocations",
		tcp:  true,
		keys: 4096, window: 1, writeShare: 0.5,
	},
	{
		name: "durable_batch",
		why:  "fsynced store.Disk behind batch-32 Session frames, 80% writes: group commit and the batcher dominate, batch frames not single ones",
		tcp:  true, durable: true,
		keys: 512, window: 32, writeShare: 0.8,
	},
	{
		name:  "mpath_read",
		why:   "M-Path(10,3) over n=100, 90% reads: SelectQuorum's two max-flows per pick dominate and load sits at 1.0 against a 0.51 bound",
		mpath: true,
		keys:  1024, window: 1, writeShare: 0.1,
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// op is one scheduled operation: the key index shifted left by one, with
// the low bit set for a write.
type op uint32

func (o op) key() int    { return int(o >> 1) }
func (o op) write() bool { return o&1 == 1 }

// genSchedule draws one caller's schedule from the seed: uniform keys,
// Bernoulli(writeShare) writes. Any window consecutive operations (also
// across the wrap-around) touch distinct keys, so a caller never has two
// operations in flight on one key. With two callers a key then sees at
// most two concurrent writes, at most three distinct values among a
// quorum's replies, and a 10-server quorum always holds one value vouched
// by b+1 = 4 servers: no read can fail with ErrNoCandidate, which keeps
// the failed count at zero by construction and not by luck.
func genSchedule(seed int64, caller, n, keys int, writeShare float64, window int) []op {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(caller)))
	s := make([]op, n)
	recent := func(i, k int) bool {
		for j := 1; j < window; j++ {
			if p := i - j; p >= 0 && s[p].key() == k {
				return true
			}
			// The tail also neighbours the head it wraps around to.
			if p := i + j - n; p >= 0 && s[p].key() == k {
				return true
			}
		}
		return false
	}
	for i := range s {
		k := rng.Intn(keys)
		for recent(i, k) {
			k = rng.Intn(keys)
		}
		s[i] = op(k << 1)
		if rng.Float64() < writeShare {
			s[i] |= 1
		}
	}
	return s
}

func keyName(i int) string { return fmt.Sprintf("k%06d", i) }

// keyIndex parses keyName's output; -1 for anything else (the empty key
// of a suspicion probe, say).
func keyIndex(key string) int {
	if len(key) != 7 || key[0] != 'k' {
		return -1
	}
	n := 0
	for i := 1; i < 7; i++ {
		c := key[i]
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// preloadSeq is the sequence number carried by the value the set-up
// preloads into every key; measured writes count up from 0.
const preloadSeq = -1

// makeValue encodes (key, caller, seq) in valueLen bytes:
// "k000123c1s000000004711" (seq is printed +1, so the preload reads as 0)
// padded with dots. This is the generator's only allocation per
// operation, and the servers keep the string in place of the key's
// previous value, so the live heap does not grow.
func makeValue(key, caller int, seq int64) string {
	var b [valueLen]byte
	for i := range b {
		b[i] = '.'
	}
	b[0] = 'k'
	putDigits(b[1:7], int64(key))
	b[7] = 'c'
	b[8] = byte('0' + caller)
	b[9] = 's'
	putDigits(b[10:22], seq+1)
	return string(b[:])
}

func putDigits(dst []byte, v int64) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = byte('0' + v%10)
		v /= 10
	}
}

// parseValue is the inverse of makeValue.
func parseValue(v string) (key, caller int, seq int64, ok bool) {
	if len(v) != valueLen || v[7] != 'c' || v[9] != 's' {
		return 0, 0, 0, false
	}
	if key = keyIndex(v[:7]); key < 0 {
		return 0, 0, 0, false
	}
	caller = int(v[8] - '0')
	for i := 10; i < 22; i++ {
		c := v[i]
		if c < '0' || c > '9' {
			return 0, 0, 0, false
		}
		seq = seq*10 + int64(c-'0')
	}
	return key, caller, seq - 1, caller >= 0 && caller < callers
}

// checker validates every read against what the callers wrote. The
// register is safe, not atomic, so only these rules are sound:
//
//   - the value parses, names the key that was read, and its author
//     really issued a write of that key with that sequence number (the
//     schedule is deterministic, so this needs no log);
//   - it is not older than the author's last write of the key that was
//     acknowledged before the read began;
//   - it is not a write that was acknowledged before the reader's own
//     last acknowledged write of the key began (the caller would be
//     reading something older than what it was told is stored).
//
// All state is per (caller, key), allocated at set-up, and read across
// callers through atomics. ackTime is stored before ackSeq and loaded
// after it, so a racing reader can only see a later time than the true
// one, which makes the third rule miss a violation, never invent one.
type checker struct {
	sched      [callers][]op
	issued     [callers]atomic.Int64 // operations started, per caller
	ackSeq     [callers][]atomic.Int64
	ackTime    [callers][]atomic.Int64
	ackStart   [callers][]int64 // start time of the caller's last acked write; owner only
	violations atomic.Int64
	firstMsg   atomic.Pointer[string]
}

func newChecker(sched [callers][]op, keys int) *checker {
	ck := &checker{sched: sched}
	for c := 0; c < callers; c++ {
		ck.ackSeq[c] = make([]atomic.Int64, keys)
		ck.ackTime[c] = make([]atomic.Int64, keys)
		ck.ackStart[c] = make([]int64, keys)
		for k := range ck.ackSeq[c] {
			ck.ackSeq[c][k].Store(preloadSeq)
		}
	}
	return ck
}

// wrote records an acknowledged write by caller.
func (ck *checker) wrote(caller, key int, seq, start, end int64) {
	ck.ackStart[caller][key] = start
	ck.ackTime[caller][key].Store(end)
	ck.ackSeq[caller][key].Store(seq)
}

func (ck *checker) fail(format string, args ...any) {
	if ck.violations.Add(1) == 1 {
		msg := fmt.Sprintf(format, args...)
		ck.firstMsg.Store(&msg)
	}
}

// read checks the value a read by caller returned; start is when the read
// began.
func (ck *checker) read(caller, key int, value string, start int64) {
	vk, author, seq, ok := parseValue(value)
	if !ok {
		ck.fail("read of %s by caller %d returned unparseable value %q", keyName(key), caller, value)
		return
	}
	if vk != key {
		ck.fail("read of %s returned a value written to %s", keyName(key), keyName(vk))
		return
	}
	if seq == preloadSeq {
		if author != key%callers {
			ck.fail("read of %s returned a preload value by caller %d, who did not preload it", keyName(key), author)
			return
		}
	} else {
		o := ck.sched[author][seq%int64(len(ck.sched[author]))]
		if seq >= ck.issued[author].Load() || !o.write() || o.key() != key {
			ck.fail("read of %s returned (caller %d, seq %d), which was never written to it", keyName(key), author, seq)
			return
		}
	}
	if acked := ck.ackSeq[author][key].Load(); seq < acked && ck.ackTime[author][key].Load() < start {
		ck.fail("read of %s returned caller %d's seq %d after its seq %d was acknowledged", keyName(key), author, seq, acked)
		return
	}
	if author != caller && ck.ackSeq[author][key].Load() == seq &&
		ck.ackTime[author][key].Load() < ck.ackStart[caller][key] {
		ck.fail("read of %s by caller %d returned caller %d's seq %d, acknowledged before the reader's own last write began", keyName(key), caller, author, seq)
	}
}
