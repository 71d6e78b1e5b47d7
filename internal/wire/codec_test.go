package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"bqs/internal/sim"
)

// requestCases are single operations on the default register. Each
// travels the way every lone probe does: as a batch frame of one item
// with keylen = 0.
var requestCases = []struct {
	name   string
	id     uint64
	server uint32
	req    sim.Request
}{
	{"zero", 0, 0, sim.Request{}},
	{"read", 7, 3, sim.Request{Op: sim.OpRead, ReaderID: 42}},
	{"read-timestamps", 1, 1021, sim.Request{Op: sim.OpReadTimestamps, ReaderID: -1}},
	{"write", math.MaxUint64, math.MaxUint32, sim.Request{
		Op:    sim.OpWrite,
		Value: sim.TaggedValue{Value: "hello", TS: sim.Timestamp{Seq: 9, Writer: 2}},
	}},
	{"write-negative-writer", 5, 0, sim.Request{
		Op:    sim.OpWrite,
		Value: sim.TaggedValue{Value: "x", TS: sim.Timestamp{Seq: 1 << 40, Writer: -1}},
	}},
	{"write-extremes", 6, 1, sim.Request{
		Op:       sim.OpWrite,
		ReaderID: math.MinInt32,
		Value:    sim.TaggedValue{Value: "\x00\xff\xfe utf8 ✓", TS: sim.Timestamp{Seq: math.MinInt64, Writer: math.MaxInt32}},
	}},
	{"write-empty-value", 8, 2, sim.Request{
		Op:    sim.OpWrite,
		Value: sim.TaggedValue{TS: sim.Timestamp{Seq: math.MaxInt64, Writer: math.MinInt32}},
	}},
	{"write-large-value", 9, 3, sim.Request{
		Op:    sim.OpWrite,
		Value: sim.TaggedValue{Value: strings.Repeat("v", 1<<16), TS: sim.Timestamp{Seq: 2, Writer: 0}},
	}},
}

// batchRequestCases cover both gate states — 0 (ungated) and E+1 (gated
// at epoch E) — and flip items for every defined behavior.
var batchRequestCases = []struct {
	name  string
	id    uint64
	gate  uint64
	items []sim.BatchItem
}{
	{"single-keyless", 1, 0, []sim.BatchItem{
		{Server: 0, Req: sim.Request{Op: sim.OpRead, ReaderID: 7}},
	}},
	{"single-keyed", 2, 1, []sim.BatchItem{
		{Server: 3, Req: sim.Request{Op: sim.OpWrite, Key: "user/42", Value: sim.TaggedValue{Value: "v", TS: sim.Timestamp{Seq: 9, Writer: 2}}}},
	}},
	{"mixed-servers", math.MaxUint64, math.MaxUint64, []sim.BatchItem{
		{Server: 0, Req: sim.Request{Op: sim.OpReadTimestamps, Key: "a", ReaderID: -1}},
		{Server: 5, Req: sim.Request{Op: sim.OpWrite, Key: "b", Value: sim.TaggedValue{Value: "x", TS: sim.Timestamp{Seq: 1 << 40, Writer: -1}}}},
		{Server: math.MaxUint32, Req: sim.Request{Op: sim.OpRead, Key: strings.Repeat("k", MaxKeyLen), ReaderID: math.MinInt32}},
	}},
	{"full-batch", 3, 8, func() []sim.BatchItem {
		items := make([]sim.BatchItem, MaxBatchOps)
		for i := range items {
			items[i] = sim.BatchItem{Server: i, Req: sim.Request{Op: sim.OpRead, Key: "k", ReaderID: i}}
		}
		return items
	}()},
	{"utf8-key-and-value", 4, 0, []sim.BatchItem{
		{Server: 1, Req: sim.Request{Op: sim.OpWrite, Key: "clé/ключ ✓", Value: sim.TaggedValue{Value: "\x00\xff", TS: sim.Timestamp{Seq: math.MinInt64, Writer: math.MaxInt32}}}},
	}},
	{"flip", 42, 0, func() []sim.BatchItem {
		var items []sim.BatchItem
		for b := sim.Correct; sim.KnownBehavior(b); b++ {
			items = append(items, sim.BatchItem{Server: 7, Req: sim.Request{Op: opFlip, ReaderID: int(b)}})
		}
		return items
	}()},
}

// checkRequestRoundTrip encodes items as one frame behind wantGate, reads
// it back off a stream and requires the decoder to return them
// bit-for-bit.
func checkRequestRoundTrip(t *testing.T, wantID, wantGate uint64, want []sim.BatchItem) {
	t.Helper()
	frame, err := appendBatchRequest(nil, wantID, wantGate, want)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Decode over a stale slice, as the server's read loop does.
	stale := []sim.BatchItem{{Server: 7, Req: sim.Request{Op: sim.OpWrite, Key: "stale"}}}
	id, gate, items, err := decodeBatchRequest(payload, stale, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != wantID || gate != wantGate || len(items) != len(want) {
		t.Fatalf("round trip mangled frame: id=%d gate=%d n=%d, want id=%d gate=%d n=%d", id, gate, len(items), wantID, wantGate, len(want))
	}
	for i := range items {
		if items[i] != want[i] {
			t.Fatalf("item %d mangled:\n got %+v\nwant %+v", i, items[i], want[i])
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, tc := range requestCases {
		t.Run(tc.name, func(t *testing.T) {
			checkRequestRoundTrip(t, tc.id, 0, []sim.BatchItem{{Server: int(tc.server), Req: tc.req}})
		})
	}
}

func TestBatchRequestRoundTrip(t *testing.T) {
	for _, tc := range batchRequestCases {
		t.Run(tc.name, func(t *testing.T) { checkRequestRoundTrip(t, tc.id, tc.gate, tc.items) })
	}
}

// responseCases are single answers: what a lone probe, or a flip, is
// answered with — a batch response of one item.
var responseCases = []struct {
	name string
	id   uint64
	resp sim.Response
}{
	{"zero", 0, sim.Response{}},
	{"unresponsive", 3, sim.Response{OK: false}},
	{"ok-empty", 4, sim.Response{OK: true}},
	{"ok-value", 5, sim.Response{OK: true, Value: sim.TaggedValue{Value: "v", TS: sim.Timestamp{Seq: 12, Writer: 3}}}},
	{"fabricated", 6, sim.Response{OK: true, Value: sim.TaggedValue{Value: sim.FabricatedValue, TS: sim.Timestamp{Seq: 1 << 40, Writer: -1}}}},
	{"extremes", math.MaxUint64, sim.Response{OK: true, Value: sim.TaggedValue{Value: strings.Repeat("\xff", 999), TS: sim.Timestamp{Seq: math.MinInt64, Writer: math.MinInt32}}}},
}

var batchResponseCases = []struct {
	name  string
	id    uint64
	resps []sim.Response
}{
	{"one-down", 1, []sim.Response{{}}},
	{"mixed", 2, []sim.Response{
		{OK: true, Value: sim.TaggedValue{Value: "v", TS: sim.Timestamp{Seq: 3, Writer: 1}}},
		{OK: false},
		{OK: true},
	}},
	{"extremes", math.MaxUint64, []sim.Response{
		{OK: true, Value: sim.TaggedValue{Value: strings.Repeat("\xfe", 999), TS: sim.Timestamp{Seq: math.MinInt64, Writer: math.MinInt32}}},
	}},
}

// checkResponseRoundTrip is the response-side twin of
// checkRequestRoundTrip.
func checkResponseRoundTrip(t *testing.T, wantID uint64, want []sim.Response) {
	t.Helper()
	frame, err := AppendBatchResponse(nil, wantID, want)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	id, resps, err := decodeBatchResponse(payload, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != wantID || len(resps) != len(want) {
		t.Fatalf("round trip mangled frame: id=%d n=%d, want id=%d n=%d", id, len(resps), wantID, len(want))
	}
	for i := range resps {
		if resps[i] != want[i] {
			t.Fatalf("item %d mangled:\n got %+v\nwant %+v", i, resps[i], want[i])
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, tc := range responseCases {
		t.Run(tc.name, func(t *testing.T) { checkResponseRoundTrip(t, tc.id, []sim.Response{tc.resp}) })
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	for _, tc := range batchResponseCases {
		t.Run(tc.name, func(t *testing.T) { checkResponseRoundTrip(t, tc.id, tc.resps) })
	}
}

// TestGoldenFrames pins the frame layouts byte for byte: an ungated and a
// gated request, a flip item, and a response. The bytes are the format
// daemons already deployed speak, so they never change: a build that
// fails this test cannot talk to one that passes it.
func TestGoldenFrames(t *testing.T) {
	batchReq, err := AppendBatchRequest(nil, 0x0102030405060708, []sim.BatchItem{
		{Server: 3, Req: sim.Request{Op: sim.OpWrite, Key: "k1", ReaderID: -2,
			Value: sim.TaggedValue{Value: "hi", TS: sim.Timestamp{Seq: 9, Writer: -1}}}},
		{Server: 0x01020304, Req: sim.Request{Op: sim.OpRead, ReaderID: 7}}, // keyless: keylen = 0
	})
	if err != nil {
		t.Fatal(err)
	}
	batchResp, err := AppendBatchResponse(nil, 0x0102030405060708, []sim.Response{
		{OK: true, Value: sim.TaggedValue{Value: "hi", TS: sim.Timestamp{Seq: 9, Writer: -1}}},
		{OK: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	gated, err := appendBatchRequest(nil, 0x0102030405060708, 8, []sim.BatchItem{ // gated at epoch 7
		{Server: 1, Req: sim.Request{Op: sim.OpRead, ReaderID: 7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	flip, err := AppendBatchRequest(nil, 0x0102030405060708, []sim.BatchItem{
		{Server: 0x0a0b0c0d, Req: sim.Request{Op: opFlip, ReaderID: int(sim.Crashed)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		got  []byte
		want string // hex; spaces separate the grammar's fields
	}{
		{"batchReq", batchReq, "0000005d 55 0102030405060708 0000000000000000 0002" +
			" 00000003 03 fffffffffffffffe 0002 6b31 0000000000000009 ffffffffffffffff 00000002 6869" +
			" 01020304 02 0000000000000007 0000 0000000000000000 0000000000000000 00000000"},
		{"batchResp", batchResp, "00000037 56 0102030405060708 0002" +
			" 01 0000000000000009 ffffffffffffffff 00000002 6869" +
			" 00 0000000000000000 0000000000000000 00000000"},
		{"gatedReq", gated, "00000036 55 0102030405060708 0000000000000008 0001" +
			" 00000001 02 0000000000000007 0000 0000000000000000 0000000000000000 00000000"},
		{"flip", flip, "00000036 55 0102030405060708 0000000000000000 0001" +
			" 0a0b0c0d ff 0000000000000002 0000 0000000000000000 0000000000000000 00000000"},
	} {
		want, err := hex.DecodeString(strings.ReplaceAll(tc.want, " ", ""))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tc.got, want) {
			t.Errorf("%s layout changed:\n got %x\nwant %x", tc.name, tc.got, want)
		}
	}
}

// TestAppendRejectsOversizedValue pins both edges of MaxValueLen on both
// encoders: a value of exactly MaxValueLen fits a frame even under the
// longest key — filling it to the last byte — and one byte more is
// refused whatever the key.
func TestAppendRejectsOversizedValue(t *testing.T) {
	longest := sim.TaggedValue{Value: strings.Repeat("x", MaxValueLen)}
	huge := sim.TaggedValue{Value: longest.Value + "x"}
	frame, err := AppendBatchRequest(nil, 1, []sim.BatchItem{
		{Server: 0, Req: sim.Request{Op: sim.OpWrite, Key: strings.Repeat("k", MaxKeyLen), Value: longest}},
	})
	if err != nil {
		t.Fatalf("AppendBatchRequest refused a MaxKeyLen key with a MaxValueLen value: %v", err)
	}
	if len(frame)-4 != MaxFrame {
		t.Fatalf("the largest item makes a payload of %d bytes, want exactly MaxFrame = %d", len(frame)-4, MaxFrame)
	}
	if _, err := AppendBatchRequest(nil, 1, []sim.BatchItem{{Server: 0, Req: sim.Request{Op: sim.OpWrite, Value: huge}}}); err == nil {
		t.Fatal("AppendBatchRequest accepted a value longer than MaxValueLen")
	}
	if _, err := AppendBatchResponse(nil, 1, []sim.Response{{OK: true, Value: longest}}); err != nil {
		t.Fatalf("AppendBatchResponse refused a MaxValueLen value: %v", err)
	}
	if _, err := AppendBatchResponse(nil, 1, []sim.Response{{OK: true, Value: huge}}); err == nil {
		t.Fatal("AppendBatchResponse accepted a value longer than MaxValueLen")
	}
}

func TestAppendBatchRequestRejects(t *testing.T) {
	if _, err := AppendBatchRequest(nil, 1, nil); err == nil {
		t.Error("accepted an empty batch")
	}
	over := make([]sim.BatchItem, MaxBatchOps+1)
	for i := range over {
		over[i] = sim.BatchItem{Server: i, Req: sim.Request{Op: sim.OpRead}}
	}
	if _, err := AppendBatchRequest(nil, 1, over); err == nil {
		t.Error("accepted a batch beyond MaxBatchOps")
	}
	if _, err := AppendBatchRequest(nil, 1, []sim.BatchItem{
		{Server: 0, Req: sim.Request{Op: sim.OpRead, Key: strings.Repeat("k", MaxKeyLen+1)}},
	}); err == nil {
		t.Error("accepted a key beyond MaxKeyLen")
	}
	if _, err := AppendBatchRequest(nil, 1, []sim.BatchItem{
		{Server: -1, Req: sim.Request{Op: sim.OpRead}},
	}); err == nil {
		t.Error("accepted a negative server index")
	}
	// Two near-limit values overflow the frame even though each fits.
	big := strings.Repeat("v", MaxValueLen)
	if _, err := AppendBatchRequest(nil, 1, []sim.BatchItem{
		{Server: 0, Req: sim.Request{Op: sim.OpWrite, Value: sim.TaggedValue{Value: big}}},
		{Server: 1, Req: sim.Request{Op: sim.OpWrite, Value: sim.TaggedValue{Value: big}}},
	}); err == nil {
		t.Error("accepted a batch whose total exceeds MaxFrame")
	}
}

// patched returns a copy of p with fn applied, for building one
// malformed payload out of a well-formed one.
func patched(p []byte, fn func(p []byte)) []byte {
	p = append([]byte{}, p...)
	fn(p)
	return p
}

func TestDecodeBatchRejectsMalformed(t *testing.T) {
	good, err := appendBatchRequest(nil, 9, 3, []sim.BatchItem{
		{Server: 2, Req: sim.Request{Op: sim.OpWrite, Key: "k", Value: sim.TaggedValue{Value: "ok"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := good[4:]
	const valueLenAt = reqHeaderLen + reqItemOverhead + len("k") + 16 // the value's len:u32
	cases := map[string][]byte{
		"empty":               {},
		"short-header":        payload[:5],
		"truncated-gate":      payload[:reqHeaderLen-3],
		"retired-tag":         append([]byte{0x51}, payload[1:]...),
		"retired-control-tag": append([]byte{0x53}, payload[1:]...),
		"response-tag":        append([]byte{tagBatchResponse}, payload[1:]...),
		"trailing":            append(append([]byte{}, payload...), 0xAA),
		"zero-count":          patched(payload, func(p []byte) { binary.BigEndian.PutUint16(p[17:], 0) }),
		"count-overrun":       patched(payload, func(p []byte) { binary.BigEndian.PutUint16(p[17:], 7) }), // promises 7 items, carries 1
		// Declared lengths inflated past the bytes actually carried.
		"key-overrun":       patched(payload, func(p []byte) { binary.BigEndian.PutUint16(p[reqHeaderLen+13:], 5000) }),
		"value-overrun":     patched(payload, func(p []byte) { binary.BigEndian.PutUint32(p[valueLenAt:], 1000) }),
		"value-oversize":    patched(payload, func(p []byte) { binary.BigEndian.PutUint32(p[valueLenAt:], MaxValueLen+1) }),
		"truncated-value":   payload[:len(payload)-1],
		"truncated-valhdr":  payload[:valueLenAt+2],
		"truncated-itemhdr": payload[:reqHeaderLen+reqItemOverhead-1],
	}
	for name, p := range cases {
		if _, _, err := DecodeBatchRequest(p); err == nil {
			t.Errorf("%s: DecodeBatchRequest accepted malformed payload", name)
		}
	}
}

// TestDecodeRejectsMalformed is the response-side table: the decoder
// every reply — a probe's answer or a flip's ack — goes through.
func TestDecodeRejectsMalformed(t *testing.T) {
	good, err := AppendBatchResponse(nil, 9, []sim.Response{{OK: true, Value: sim.TaggedValue{Value: "ok"}}})
	if err != nil {
		t.Fatal(err)
	}
	payload := good[4:]
	const valueLenAt = batchHeaderLen + 1 + 16 // the value's len:u32
	cases := map[string][]byte{
		"empty":           {},
		"short-header":    payload[:10],
		"retired-tag":     append([]byte{0x52}, payload[1:]...),
		"request-tag":     append([]byte{tagBatchRequest}, payload[1:]...),
		"trailing":        append(append([]byte{}, payload...), 0xAA),
		"zero-count":      patched(payload, func(p []byte) { binary.BigEndian.PutUint16(p[9:], 0) }),
		"count-overrun":   patched(payload, func(p []byte) { binary.BigEndian.PutUint16(p[9:], 2) }),
		"unknown-flags":   patched(payload, func(p []byte) { p[batchHeaderLen] |= 0x80 }),
		"value-overrun":   patched(payload, func(p []byte) { binary.BigEndian.PutUint32(p[valueLenAt:], 1000) }),
		"value-oversize":  patched(payload, func(p []byte) { binary.BigEndian.PutUint32(p[valueLenAt:], MaxValueLen+1) }),
		"truncated-value": payload[:len(payload)-1],
	}
	for name, p := range cases {
		if _, _, err := decodeBatchResponse(p, nil, nil); err == nil {
			t.Errorf("%s: decodeBatchResponse accepted malformed payload", name)
		}
	}
}

func TestReadFrameLimits(t *testing.T) {
	var tooBig [4]byte
	binary.BigEndian.PutUint32(tooBig[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(tooBig[:]), nil); err == nil {
		t.Fatal("ReadFrame accepted an over-limit length prefix")
	}
	var zero [4]byte
	if _, err := ReadFrame(bytes.NewReader(zero[:]), nil); err == nil {
		t.Fatal("ReadFrame accepted a zero-length frame")
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0}), nil); err == nil {
		t.Fatal("ReadFrame accepted a truncated prefix")
	}
	// Truncated payload: prefix promises more than the stream holds.
	frame, err := AppendBatchResponse(nil, 1, []sim.Response{{OK: true, Value: sim.TaggedValue{Value: "abc"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-1]), nil); err == nil {
		t.Fatal("ReadFrame accepted a truncated payload")
	}
}

func TestReadFrameReusesBuffer(t *testing.T) {
	var stream bytes.Buffer
	for i := 0; i < 3; i++ {
		frame, err := AppendBatchResponse(nil, uint64(i), []sim.Response{{OK: true, Value: sim.TaggedValue{Value: "abc"}}})
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(frame)
	}
	var buf []byte
	for i := 0; i < 3; i++ {
		payload, err := ReadFrame(&stream, buf)
		if err != nil {
			t.Fatal(err)
		}
		id, resps, err := decodeBatchResponse(payload, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if id != uint64(i) || resps[0].Value.Value != "abc" {
			t.Fatalf("frame %d mangled: id=%d resps=%+v", i, id, resps)
		}
		buf = payload
	}
	if _, err := ReadFrame(&stream, buf); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

// fuzzDecodeRequest asserts the request decoder never panics on an
// arbitrary payload, and that anything it does accept decodes the same
// with no reuse state and twice through one shared state (the second time
// every string is a hit), and re-encodes to an identical frame.
func fuzzDecodeRequest(t *testing.T, payload []byte) {
	// Decode over a stale slice, as the server's read loop does.
	stale := []sim.BatchItem{{Server: 7, Req: sim.Request{Op: sim.OpWrite, Key: "stale"}}}
	id, gate, items, err := decodeBatchRequest(payload, stale, nil)
	if err != nil {
		return
	}
	strs := reuse{key: "stale", value: "stale"}
	for pass := 1; pass <= 2; pass++ {
		gid, ggate, got, err := decodeBatchRequest(payload, nil, &strs)
		if err != nil || gid != id || ggate != gate || !slices.Equal(got, items) {
			t.Fatalf("pass %d through reuse state: id=%d gate=%d items=%+v err=%v, want id=%d gate=%d items=%+v", pass, gid, ggate, got, err, id, gate, items)
		}
	}
	frame, err := appendBatchRequest(nil, id, gate, items)
	if err != nil {
		t.Fatalf("decoded batch fails to re-encode: %v", err)
	}
	if !bytes.Equal(frame[4:], payload) {
		t.Fatalf("re-encode mismatch:\n got %x\nwant %x", frame[4:], payload)
	}
}

// fuzzDecodeResponse is the response-side twin of fuzzDecodeRequest.
func fuzzDecodeResponse(t *testing.T, payload []byte) {
	id, resps, err := decodeBatchResponse(payload, nil, nil)
	if err != nil {
		return
	}
	strs := reuse{value: "stale"}
	for pass := 1; pass <= 2; pass++ {
		gid, got, err := decodeBatchResponse(payload, nil, &strs)
		if err != nil || gid != id || !slices.Equal(got, resps) {
			t.Fatalf("pass %d through reuse state: id=%d resps=%+v err=%v, want id=%d resps=%+v", pass, gid, got, err, id, resps)
		}
	}
	frame, err := AppendBatchResponse(nil, id, resps)
	if err != nil {
		t.Fatalf("decoded batch fails to re-encode: %v", err)
	}
	if !bytes.Equal(frame[4:], payload) {
		t.Fatalf("re-encode mismatch:\n got %x\nwant %x", frame[4:], payload)
	}
}

// TestDecodeReuseMisses decodes sequences of frames through one reuse
// state, as a read loop does, where each string differs from the last one
// in a way an equality shortcut could get wrong. Every item must decode
// to exactly what was sent.
func TestDecodeReuseMisses(t *testing.T) {
	cases := map[string][]string{
		"same-length-other-bytes": {"key-000001", "key-000002", "key-000001"},
		"empty-after-non-empty":   {"k", "", "k", ""},
		"prefix-of-last":          {"key-0001", "key-000", "key-0001"},
		"last-is-prefix":          {"key-000", "key-0001"},
		"repeat":                  {"key", "key", "key"},
	}
	for name, strs := range cases {
		var reqState, respState reuse
		for i, v := range strs {
			item := sim.BatchItem{Server: i, Req: sim.Request{Op: sim.OpWrite, Key: v, Value: sim.TaggedValue{Value: v, TS: sim.Timestamp{Seq: int64(i)}}}}
			// One item per frame, as probes travel, then both items of a
			// pair in one frame, so misses inside a frame are covered too.
			frames := [][]sim.BatchItem{{item}}
			if i > 0 {
				prev := sim.BatchItem{Server: i - 1, Req: sim.Request{Op: sim.OpWrite, Key: strs[i-1], Value: sim.TaggedValue{Value: strs[i-1]}}}
				frames = append(frames, []sim.BatchItem{prev, item})
			}
			for _, want := range frames {
				frame, err := AppendBatchRequest(nil, 1, want)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, got, err := decodeBatchRequest(frame[4:], nil, &reqState); err != nil || !slices.Equal(got, want) {
					t.Fatalf("%s: request %d decoded %+v (%v), want %+v", name, i, got, err, want)
				}
				resps := make([]sim.Response, len(want))
				for k, it := range want {
					resps[k] = sim.Response{OK: true, Value: it.Req.Value}
				}
				frame, err = AppendBatchResponse(nil, 1, resps)
				if err != nil {
					t.Fatal(err)
				}
				if _, got, err := decodeBatchResponse(frame[4:], nil, &respState); err != nil || !slices.Equal(got, resps) {
					t.Fatalf("%s: response %d decoded %+v (%v), want %+v", name, i, got, err, resps)
				}
			}
		}
	}
}

// FuzzDecodeRequest starts the request decoder's fuzzer from lone keyless
// operations — the shape of DefaultKey traffic.
func FuzzDecodeRequest(f *testing.F) {
	for _, tc := range requestCases {
		frame, err := AppendBatchRequest(nil, tc.id, []sim.BatchItem{{Server: int(tc.server), Req: tc.req}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{0x51}) // retired tag
	f.Fuzz(fuzzDecodeRequest)
}

// FuzzDecodeResponse starts the response decoder's fuzzer from lone
// answers — the shape of a probe's reply and of a flip's ack.
func FuzzDecodeResponse(f *testing.F) {
	for _, tc := range responseCases {
		frame, err := AppendBatchResponse(nil, tc.id, []sim.Response{tc.resp})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{0x52}) // retired tag
	f.Fuzz(fuzzDecodeResponse)
}

// FuzzDecodeBatchRequest starts the same fuzzer from keyed, multi-item,
// gated and flip frames, plus payloads of other kinds — a retired control
// frame, a retired hello — that the decoder must reject.
func FuzzDecodeBatchRequest(f *testing.F) {
	for _, tc := range batchRequestCases {
		if len(tc.items) > 8 {
			continue // keep the seed corpus small
		}
		frame, err := appendBatchRequest(nil, tc.id, tc.gate, tc.items)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{tagBatchRequest})
	f.Add([]byte{0x54, 2})                                     // retired hello
	f.Add([]byte{0x53, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1, 2}) // retired control frame: flip server 1 to crashed
	if keyless, err := AppendBatchRequest(nil, 5, []sim.BatchItem{
		{Server: 1, Req: sim.Request{Op: sim.OpWrite, Value: sim.TaggedValue{Value: "v", TS: sim.Timestamp{Seq: 1}}}},
		{Server: 2, Req: sim.Request{Op: sim.OpWrite, Key: "k", Value: sim.TaggedValue{Value: "v", TS: sim.Timestamp{Seq: 1}}}},
	}); err == nil {
		f.Add(keyless[4:])
	}
	f.Fuzz(fuzzDecodeRequest)
}

// FuzzDecodeBatchResponse is the response-side twin of
// FuzzDecodeBatchRequest.
func FuzzDecodeBatchResponse(f *testing.F) {
	for _, tc := range batchResponseCases {
		frame, err := AppendBatchResponse(nil, tc.id, tc.resps)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{tagBatchResponse})
	f.Add([]byte{0x54, 2}) // retired hello
	if ack, err := AppendBatchResponse(nil, 3, []sim.Response{{OK: true}}); err == nil {
		f.Add(ack[4:]) // a flip's ack
	}
	f.Fuzz(fuzzDecodeResponse)
}

// FuzzRequestRoundTrip drives the encoder with arbitrary field values and
// asserts the decoder returns them bit-for-bit.
func FuzzRequestRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint32(3), byte(sim.OpWrite), int64(42), "key", int64(7), int64(2), "value")
	f.Add(uint64(0), uint32(0), byte(0), int64(-1), "", int64(math.MinInt64), int64(-1), "")
	f.Fuzz(func(t *testing.T, id uint64, server uint32, op byte, reader int64, key string, seq, writer int64, value string) {
		// ReaderID and Writer travel as 64-bit, so they survive exactly on
		// 64-bit platforms (int == int64 everywhere this repo targets).
		item := sim.BatchItem{Server: int(server), Req: sim.Request{
			Op:       sim.Op(op),
			Key:      key,
			ReaderID: int(reader),
			Value:    sim.TaggedValue{Value: value, TS: sim.Timestamp{Seq: seq, Writer: int(writer)}},
		}}
		if !fitsFrame(item) {
			if _, err := AppendBatchRequest(nil, id, []sim.BatchItem{item}); err == nil {
				t.Fatal("AppendBatchRequest accepted an item fitsFrame refuses")
			}
			return
		}
		checkRequestRoundTrip(t, id, 0, []sim.BatchItem{item})
	})
}
