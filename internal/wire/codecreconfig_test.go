package wire

import (
	"bytes"
	"math"
	"testing"

	"bqs/internal/reconfig"
	"bqs/internal/sim"
)

var reconfigFrameCases = []struct {
	name string
	id   uint64
	f    ReconfigFrame
}{
	{"query", 3, ReconfigFrame{Kind: ReconfigQuery}},
	{"install-mgrid", 4, ReconfigFrame{Kind: ReconfigInstall,
		Rec: reconfig.Record{Epoch: 1, Kind: "mgrid", Universe: 36, B: 1}}},
	{"install-compose", 5, ReconfigFrame{Kind: ReconfigInstall,
		Rec: reconfig.Record{Epoch: 2, Kind: "compose", Universe: 25, B: 1, Outer: 5}}},
	{"install-extremes", math.MaxUint64, ReconfigFrame{Kind: ReconfigInstall,
		Rec: reconfig.Record{Epoch: math.MaxUint64, Kind: "threshold", Universe: reconfig.MaxUniverse, B: math.MaxUint16}}},
	{"state-record", 6, ReconfigFrame{Kind: ReconfigState,
		Rec: reconfig.Record{Epoch: 3, Kind: "wheel", Universe: 7}}},
	{"state-empty", 7, ReconfigFrame{Kind: ReconfigState}},
	{"wrongepoch-record", 8, ReconfigFrame{Kind: ReconfigWrongEpoch,
		Rec: reconfig.Record{Epoch: 4, Kind: "grid", Universe: 49, B: 2}}},
	{"wrongepoch-empty", 9, ReconfigFrame{Kind: ReconfigWrongEpoch}},
}

func TestReconfigFrameRoundTrip(t *testing.T) {
	for _, tc := range reconfigFrameCases {
		t.Run(tc.name, func(t *testing.T) {
			frame, err := AppendReconfig(nil, tc.id, tc.f)
			if err != nil {
				t.Fatal(err)
			}
			payload, err := ReadFrame(bytes.NewReader(frame), nil)
			if err != nil {
				t.Fatal(err)
			}
			id, f, err := DecodeReconfig(payload)
			if err != nil {
				t.Fatal(err)
			}
			if id != tc.id || f != tc.f {
				t.Fatalf("round trip mangled frame:\n got id=%d %+v\nwant id=%d %+v", id, f, tc.id, tc.f)
			}
		})
	}
}

func TestAppendReconfigRejects(t *testing.T) {
	cases := map[string]ReconfigFrame{
		"unknown-kind":  {Kind: ReconfigKind(99)},
		"zero-kind":     {Kind: ReconfigKind(0)},
		"empty-install": {Kind: ReconfigInstall}, // install must carry a record
		"bad-universe": {Kind: ReconfigInstall,
			Rec: reconfig.Record{Epoch: 1, Kind: "mgrid", Universe: reconfig.MaxUniverse + 1}},
		"bad-kind-name": {Kind: ReconfigInstall,
			Rec: reconfig.Record{Epoch: 1, Kind: "MGrid", Universe: 36}},
		"oversized-b": {Kind: ReconfigInstall,
			Rec: reconfig.Record{Epoch: 1, Kind: "threshold", Universe: reconfig.MaxUniverse, B: math.MaxUint16 + 1}},
		"bad-state-record": {Kind: ReconfigState,
			Rec: reconfig.Record{Epoch: 1, Kind: "", Universe: 36}},
	}
	for name, f := range cases {
		if _, err := AppendReconfig(nil, 1, f); err == nil {
			t.Errorf("%s: AppendReconfig accepted %+v", name, f)
		}
	}
	// A server reply over such a record keeps the kind its caller waits
	// for, saying "nothing installed" — any other frame kind would make
	// the client tear the connection down.
	for _, kind := range []ReconfigKind{ReconfigState, ReconfigWrongEpoch} {
		id, f, err := DecodeReconfig(recordFrame(7, kind, cases["oversized-b"].Rec)[4:])
		if err != nil || id != 7 || f != (ReconfigFrame{Kind: kind}) {
			t.Errorf("recordFrame(%v) over an unencodable record = id %d %+v, %v; want an empty %v frame", kind, id, f, err, kind)
		}
	}
}

func TestDecodeReconfigRejectsMalformed(t *testing.T) {
	install, err := AppendReconfig(nil, 9, ReconfigFrame{Kind: ReconfigInstall,
		Rec: reconfig.Record{Epoch: 1, Kind: "mgrid", Universe: 36, B: 1}})
	if err != nil {
		t.Fatal(err)
	}
	payload := install[4:]
	cases := map[string][]byte{
		"empty":        {},
		"short-header": payload[:5],
		"wrong-tag":    append([]byte{tagBatchRequest}, payload[1:]...),
		"unknown-kind": func() []byte {
			p := append([]byte{}, payload...)
			p[9] = 99
			return p
		}(),
		"zero-kind": func() []byte {
			p := append([]byte{}, payload...)
			p[9] = 0
			return p
		}(),
		"install-empty-body": payload[:reconfigHeaderLen],
		"truncated-record":   payload[:reconfigHeaderLen+recordWireLen-1],
		"truncated-kindname": payload[:len(payload)-1],
		"trailing-bytes":     append(append([]byte{}, payload...), 0xAA),
		"zero-universe": func() []byte {
			p := append([]byte{}, payload...)
			p[reconfigHeaderLen+8], p[reconfigHeaderLen+9], p[reconfigHeaderLen+10], p[reconfigHeaderLen+11] = 0, 0, 0, 0
			return p
		}(),
		"uppercase-kindname": func() []byte {
			p := append([]byte{}, payload...)
			p[len(p)-5] = 'M'
			return p
		}(),
		// Kind 1, the retired per-connection epoch announce, byte for byte
		// as its last build sent it (epoch 5).
		"retired-announce": {tagReconfig, 0, 0, 0, 0, 0, 0, 0, 9, 1, 0, 0, 0, 0, 0, 0, 0, 5},
		"query-trailing":   {tagReconfig, 0, 0, 0, 0, 0, 0, 0, 1, byte(ReconfigQuery), 0xAA},
	}
	for name, p := range cases {
		if _, _, err := DecodeReconfig(p); err == nil {
			t.Errorf("%s: DecodeReconfig accepted malformed payload", name)
		}
	}
}

// FuzzReconfigFrame asserts the reconfig decoder never panics on
// arbitrary payloads and that anything it accepts re-encodes to an
// identical frame — the epoch plane keeps the decode/re-encode identity
// every other frame kind pins. Seeds cover all four kinds, the
// empty-body state/wrongepoch encoding of the zero record, and payloads
// that must be rejected here: the retired announce kind and cross-kind
// frames (a retired hello, a retired control frame, ungated and gated
// batches).
func FuzzReconfigFrame(f *testing.F) {
	for _, tc := range reconfigFrameCases {
		frame, err := AppendReconfig(nil, tc.id, tc.f)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{tagReconfig})
	f.Add([]byte{tagReconfig, 0, 0, 0, 0, 0, 0, 0, 1, 99})
	f.Add([]byte{tagReconfig, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 5}) // retired announce
	f.Add([]byte{0x54, 2})                                                        // retired hello
	f.Add([]byte{0x53, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1, 2})                    // retired control frame
	for gate := uint64(0); gate < 2; gate++ {
		if batch, err := appendBatchRequest(nil, 4, gate, []sim.BatchItem{{Server: 0, Req: sim.Request{Op: sim.OpRead, Key: "k"}}}); err == nil {
			f.Add(batch[4:])
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		id, fr, err := DecodeReconfig(payload)
		if err != nil {
			return
		}
		frame, err := AppendReconfig(nil, id, fr)
		if err != nil {
			t.Fatalf("decoded reconfig frame fails to re-encode: %v", err)
		}
		if !bytes.Equal(frame[4:], payload) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", frame[4:], payload)
		}
	})
}
