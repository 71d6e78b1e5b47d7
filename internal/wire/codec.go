// Package wire runs the [MR98a] register protocol over real TCP. It
// supplies the three pieces the in-memory simulator deliberately left
// pluggable behind sim.Transport:
//
//   - one length-prefixed binary wire format for sim.Request/sim.Response
//     traffic — keyed, batched frames with request IDs, so one connection
//     carries many outstanding operations (this file; the epoch plane's
//     frames are in codecreconfig.go);
//   - Server, a TCP listener hosting a shard of sim.Server replicas
//     behind concurrent connection handlers with graceful shutdown
//     (server.go);
//   - Client, a sim.Transport that routes each probe to the address
//     hosting that server, with per-address connection pooling, request
//     pipelining and automatic reconnect (client.go). A server that is
//     unreachable answers Response{OK: false} — exactly the suspicion
//     signal the quorum re-selection logic expects — so a Cluster built
//     over a wire.Client behaves like one over the in-memory transport.
//
// Each connection's read loop decodes wire strings through a reuse state
// that remembers the last key and the last value it made: an item whose
// bytes equal them shares that string instead of allocating another. A
// quorum phase sends one key (and, for a write, one value) to every
// member, and the correct members of a read reply with identical bytes,
// so a phase's frames on one connection decode to one string each. A
// connection retains at most one key and one value this way.
//
// The combination turns the reproduction into an actual distributed
// system: cmd/bqs-server hosts shards of the universe, cmd/bqs-client
// drives the mixed workload against them, and the measured peak load is
// directly comparable to the paper's L(Q) bounds (Theorem 4.1).
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"bqs/internal/sim"
)

// Frame layout. Every message is a 4-byte big-endian payload length
// followed by the payload; the first payload byte tags the message kind.
//
//	batchReq  := tagBatchRequest id:u64 gate:u64 count:u16 reqItem*
//	reqItem   := server:u32 op:u8 reader:i64 keylen:u16 key value
//	batchResp := tagBatchResponse id:u64 count:u16 respItem*
//	respItem  := flags:u8 value
//	value     := seq:i64 writer:i64 len:u32 bytes
//
// There is one data format: every operation, alone or in company, travels
// as an item of a batch frame, and an operation on the default register
// is simply keylen = 0. A batch frame carries operations for any mix of
// servers, so one frame serves a whole shard: the receiving daemon fans
// the items across the replicas it hosts and answers with a batchResp
// whose items align index-by-index with the request.
//
// id is the pipelining correlation token: the client picks it, the server
// echoes it, and responses may arrive in any order. gate is the epoch
// gate, carried by every frame so no connection holds epoch state: 0 is
// ungated, E+1 means "routed with epoch E's quorum system" — served only
// while E is the shard's epoch, else answered wrongepoch (codecreconfig.go).
// It cannot be the bare epoch: a client still at epoch 0 must be refused
// once the shard installs epoch 1. flags bit 0 is Response.OK. All integers
// are big-endian; Timestamp.Writer and Request.ReaderID travel as 64-bit
// two's complement so negative sentinel writers (the collusion timestamps
// use Writer = −1) survive the trip.
//
// An item whose op is opFlip is the fault-injection channel of the churn
// engine: it asks the shard to flip the addressed replica to the
// sim.Behavior in its reader field, and is answered like any item (OK
// reports whether the replica is hosted here). It is what lets a remote
// schedule driver (faults.FaultController over a wire.Client) crash and
// recover servers mid-run, so live availability can be measured against
// F_p(Q) (Definition 3.10) over real TCP.
//
// Compatibility is fail-closed, with no negotiation: a peer that receives
// a tag it does not know drops the connection, which the other end reads
// as a crashed shard — Response{OK: false} — and routes around. Tags 0x51,
// 0x52, 0x53 and 0x54 belonged to retired frame kinds (a keyless single
// request, its response, a control frame carrying one flip, a version
// hello) and are never reused, so a build that still sends them is refused
// rather than misread.
const (
	tagBatchRequest  = 0x55
	tagBatchResponse = 0x56

	opFlip = 0xFF // a flip item's op byte: wire-private, above every sim.Op

	// MaxFrame bounds a payload so a corrupt or hostile length prefix
	// cannot make a peer allocate unboundedly. It also caps the value a
	// write can carry (MaxValueLen).
	MaxFrame = 1 << 20

	valueHeaderLen  = 8 + 8 + 4          // seq + writer + len
	batchHeaderLen  = 1 + 8 + 2          // tag + id + count
	reqHeaderLen    = batchHeaderLen + 8 // a request's header adds the gate
	reqItemOverhead = 4 + 1 + 8 + 2      // server + op + reader + keylen
	respItemMinLen  = 1 + valueHeaderLen // flags + value header

	// MaxKeyLen bounds a register key on the wire, so a hostile keylen
	// cannot push the item header past the frame.
	MaxKeyLen = 1 << 12

	// MaxBatchOps bounds how many operations one batch frame may carry.
	MaxBatchOps = 1 << 10

	// MaxValueLen is the longest register value the wire carries. It is
	// what a frame holding a single item has left after the longest key,
	// so any operation within MaxKeyLen and MaxValueLen can be sent.
	MaxValueLen = MaxFrame - reqHeaderLen - reqItemOverhead - MaxKeyLen - valueHeaderLen
)

const flagOK = 1 << 0

func appendValue(dst []byte, tv sim.TaggedValue) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(tv.TS.Seq))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(tv.TS.Writer)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(tv.Value)))
	return append(dst, tv.Value...)
}

// reuse is a read loop's decode state: the last key and the last value
// string it decoded. Strings are immutable, so one decoded string can be
// handed to any number of items, on the loop or on other goroutines. A
// nil *reuse decodes every string afresh.
type reuse struct{ key, value string }

// str returns string(b), reusing *last when its bytes are equal (the
// comparison does not allocate) and remembering the new string otherwise.
// An empty string costs nothing and is not remembered, so a timestamp
// reply or a write's ack between two reads keeps the read's value. last
// is nil when the caller keeps no state.
func str(last *string, b []byte) string {
	if last == nil || len(b) == 0 {
		return string(b)
	}
	if string(b) != *last {
		*last = string(b)
	}
	return *last
}

// slots returns r's key and value slots for str, both nil for a nil r.
func (r *reuse) slots() (key, value *string) {
	if r == nil {
		return nil, nil
	}
	return &r.key, &r.value
}

// decodeValue decodes one value, its bytes through str and last.
func decodeValue(p []byte, last *string) (sim.TaggedValue, []byte, error) {
	if len(p) < valueHeaderLen {
		return sim.TaggedValue{}, nil, fmt.Errorf("wire: truncated value header (%d bytes)", len(p))
	}
	var tv sim.TaggedValue
	tv.TS.Seq = int64(binary.BigEndian.Uint64(p))
	tv.TS.Writer = int(int64(binary.BigEndian.Uint64(p[8:])))
	n := binary.BigEndian.Uint32(p[16:])
	p = p[valueHeaderLen:]
	if n > MaxValueLen {
		return sim.TaggedValue{}, nil, fmt.Errorf("wire: value length %d exceeds %d", n, MaxValueLen)
	}
	if uint32(len(p)) < n {
		return sim.TaggedValue{}, nil, fmt.Errorf("wire: truncated value (%d of %d bytes)", len(p), n)
	}
	tv.Value = str(last, p[:n])
	return tv, p[n:], nil
}

// reqItemLen is the encoded size of one batch-request item.
func reqItemLen(it sim.BatchItem) int {
	return reqItemOverhead + len(it.Req.Key) + valueHeaderLen + len(it.Req.Value.Value)
}

// badFlip reports a flip item to an undefined behavior, which both
// directions refuse, so a hostile or corrupt peer cannot flip a replica
// into an undefined mode and a bad flip fails at its caller.
func badFlip(it sim.BatchItem) bool {
	return byte(it.Req.Op) == opFlip && !sim.KnownBehavior(sim.Behavior(it.Req.ReaderID))
}

// AppendBatchRequest appends a complete, ungated batch-request frame
// (length prefix included) carrying items, correlated by id. Items may
// address different servers — the shard hosting them fans the batch across
// its replicas. Oversized keys, values, batches, a total payload past
// MaxFrame, or a flip to an unknown behavior are rejected at encode time,
// mirroring the decoder.
func AppendBatchRequest(dst []byte, id uint64, items []sim.BatchItem) ([]byte, error) {
	return appendBatchRequest(dst, id, 0, items)
}

// appendBatchRequest is AppendBatchRequest behind the given epoch gate.
func appendBatchRequest(dst []byte, id, gate uint64, items []sim.BatchItem) ([]byte, error) {
	if len(items) == 0 || len(items) > MaxBatchOps {
		return dst, fmt.Errorf("wire: batch of %d operations outside [1,%d]", len(items), MaxBatchOps)
	}
	total := reqHeaderLen
	for _, it := range items {
		if it.Server < 0 || int64(it.Server) > int64(^uint32(0)) {
			return dst, fmt.Errorf("wire: server index %d does not fit a frame", it.Server)
		}
		if len(it.Req.Key) > MaxKeyLen {
			return dst, fmt.Errorf("wire: key of %d bytes exceeds %d", len(it.Req.Key), MaxKeyLen)
		}
		if len(it.Req.Value.Value) > MaxValueLen {
			return dst, fmt.Errorf("wire: value of %d bytes exceeds %d", len(it.Req.Value.Value), MaxValueLen)
		}
		if badFlip(it) {
			return dst, fmt.Errorf("wire: flip to unknown behavior %d", it.Req.ReaderID)
		}
		total += reqItemLen(it)
	}
	if total > MaxFrame {
		return dst, fmt.Errorf("wire: batch frame of %d bytes exceeds %d", total, MaxFrame)
	}
	dst = slices.Grow(dst, 4+total)
	dst = binary.BigEndian.AppendUint32(dst, uint32(total))
	dst = append(dst, tagBatchRequest)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, gate)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(items)))
	for _, it := range items {
		dst = binary.BigEndian.AppendUint32(dst, uint32(it.Server))
		dst = append(dst, byte(it.Req.Op))
		dst = binary.BigEndian.AppendUint64(dst, uint64(int64(it.Req.ReaderID)))
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(it.Req.Key)))
		dst = append(dst, it.Req.Key...)
		dst = appendValue(dst, it.Req.Value)
	}
	return dst, nil
}

// DecodeBatchRequest parses a batch-request payload (the frame minus its
// length prefix, as returned by ReadFrame), dropping its gate.
func DecodeBatchRequest(p []byte) (id uint64, items []sim.BatchItem, err error) {
	id, _, items, err = decodeBatchRequest(p, nil, nil)
	return id, items, err
}

// decodeBatchRequest is DecodeBatchRequest keeping the gate. The items are
// decoded into dst's array when it is large enough, so a caller that is
// done with one frame's items can decode the next frame's into them, and
// their strings through r (see reuse; nil keeps no state).
func decodeBatchRequest(p []byte, dst []sim.BatchItem, r *reuse) (id, gate uint64, items []sim.BatchItem, err error) {
	if len(p) < reqHeaderLen {
		return 0, 0, nil, fmt.Errorf("wire: batch payload of %d bytes shorter than header %d", len(p), reqHeaderLen)
	}
	if p[0] != tagBatchRequest {
		return 0, 0, nil, fmt.Errorf("wire: payload tag %#x is not a batch request", p[0])
	}
	id = binary.BigEndian.Uint64(p[1:])
	gate = binary.BigEndian.Uint64(p[9:])
	count := int(binary.BigEndian.Uint16(p[17:]))
	if count == 0 || count > MaxBatchOps {
		return 0, 0, nil, fmt.Errorf("wire: batch count %d outside [1,%d]", count, MaxBatchOps)
	}
	p = p[reqHeaderLen:]
	if count > len(p)/(reqItemOverhead+valueHeaderLen) {
		// Checked before growing dst, so a header cannot buy an
		// allocation its payload does not pay for.
		return 0, 0, nil, fmt.Errorf("wire: batch count %d overruns a %d-byte payload", count, len(p))
	}
	items = slices.Grow(dst[:0], count)
	lastKey, lastValue := r.slots()
	for i := 0; i < count; i++ {
		if len(p) < reqItemOverhead {
			return 0, 0, nil, fmt.Errorf("wire: truncated batch item %d (%d bytes)", i, len(p))
		}
		var it sim.BatchItem
		it.Server = int(binary.BigEndian.Uint32(p))
		it.Req.Op = sim.Op(p[4])
		it.Req.ReaderID = int(int64(binary.BigEndian.Uint64(p[5:])))
		if badFlip(it) {
			return 0, 0, nil, fmt.Errorf("wire: flip item %d to unknown behavior %d", i, it.Req.ReaderID)
		}
		klen := int(binary.BigEndian.Uint16(p[13:]))
		if klen > MaxKeyLen {
			return 0, 0, nil, fmt.Errorf("wire: key length %d exceeds %d", klen, MaxKeyLen)
		}
		p = p[reqItemOverhead:]
		if len(p) < klen {
			return 0, 0, nil, fmt.Errorf("wire: truncated key (%d of %d bytes)", len(p), klen)
		}
		it.Req.Key = str(lastKey, p[:klen])
		tv, rest, err := decodeValue(p[klen:], lastValue)
		if err != nil {
			return 0, 0, nil, err
		}
		it.Req.Value = tv
		p = rest
		items = append(items, it)
	}
	if len(p) != 0 {
		return 0, 0, nil, fmt.Errorf("wire: %d trailing bytes after batch request", len(p))
	}
	return id, gate, items, nil
}

// AppendBatchResponse appends a complete batch-response frame answering
// frame id; resps must align index-by-index with the request's items (a
// flip item is answered like any other). A response value too large for a
// frame is the caller's bug at this layer (the server degrades oversized
// replica answers to unresponsiveness before encoding).
func AppendBatchResponse(dst []byte, id uint64, resps []sim.Response) ([]byte, error) {
	if len(resps) == 0 || len(resps) > MaxBatchOps {
		return dst, fmt.Errorf("wire: batch of %d responses outside [1,%d]", len(resps), MaxBatchOps)
	}
	total := batchHeaderLen
	for _, r := range resps {
		if len(r.Value.Value) > MaxValueLen {
			return dst, fmt.Errorf("wire: value of %d bytes exceeds %d", len(r.Value.Value), MaxValueLen)
		}
		total += respItemMinLen + len(r.Value.Value)
	}
	if total > MaxFrame {
		return dst, fmt.Errorf("wire: batch frame of %d bytes exceeds %d", total, MaxFrame)
	}
	dst = slices.Grow(dst, 4+total)
	dst = binary.BigEndian.AppendUint32(dst, uint32(total))
	dst = append(dst, tagBatchResponse)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(resps)))
	for _, r := range resps {
		var flags byte
		if r.OK {
			flags |= flagOK
		}
		dst = append(dst, flags)
		dst = appendValue(dst, r.Value)
	}
	return dst, nil
}

// decodeBatchResponse parses a batch-response payload, decoding into
// dst's array when it is large enough and its values through r, as
// decodeBatchRequest does. Unknown flag bits are rejected so a future
// protocol revision cannot be half-understood silently.
func decodeBatchResponse(p []byte, dst []sim.Response, r *reuse) (id uint64, resps []sim.Response, err error) {
	if len(p) < batchHeaderLen {
		return 0, nil, fmt.Errorf("wire: batch payload of %d bytes shorter than header %d", len(p), batchHeaderLen)
	}
	if p[0] != tagBatchResponse {
		return 0, nil, fmt.Errorf("wire: payload tag %#x is not a batch response", p[0])
	}
	id = binary.BigEndian.Uint64(p[1:])
	count := int(binary.BigEndian.Uint16(p[9:]))
	if count == 0 || count > MaxBatchOps {
		return 0, nil, fmt.Errorf("wire: batch count %d outside [1,%d]", count, MaxBatchOps)
	}
	p = p[batchHeaderLen:]
	if count > len(p)/respItemMinLen {
		return 0, nil, fmt.Errorf("wire: batch count %d overruns a %d-byte payload", count, len(p))
	}
	resps = slices.Grow(dst[:0], count)
	_, lastValue := r.slots()
	for i := 0; i < count; i++ {
		if len(p) < respItemMinLen {
			return 0, nil, fmt.Errorf("wire: truncated batch response item %d (%d bytes)", i, len(p))
		}
		if p[0]&^flagOK != 0 {
			return 0, nil, fmt.Errorf("wire: unknown response flags %#x", p[0])
		}
		var r sim.Response
		r.OK = p[0]&flagOK != 0
		tv, rest, err := decodeValue(p[1:], lastValue)
		if err != nil {
			return 0, nil, err
		}
		r.Value = tv
		p = rest
		resps = append(resps, r)
	}
	if len(p) != 0 {
		return 0, nil, fmt.Errorf("wire: %d trailing bytes after batch response", len(p))
	}
	return id, resps, nil
}

// ReadFrame reads one length-prefixed payload from r, reusing buf when it
// is large enough (for the prefix too: a local array would escape through
// r, one allocation per frame). The prefix counts the payload only (not
// itself), and ReadFrame refuses payloads larger than MaxFrame, so a
// garbage prefix fails fast instead of forcing a huge allocation.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4, 256)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("wire: frame length %d outside [1,%d]", n, MaxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
