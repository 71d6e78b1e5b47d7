package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var recordCases = []Record{
	{Key: "x", Value: "hello", Seq: 1, Writer: 0},
	{Key: "obj/17", Value: "", Seq: 42, Writer: 3},
	{Key: "", Value: "empty key is legal at this layer", Seq: -1, Writer: -1},
	{Key: "extremes", Value: "v", Seq: math.MaxInt64, Writer: math.MinInt64},
	{Key: strings.Repeat("k", MaxKeyLen), Value: strings.Repeat("v", MaxValueLen), Seq: 1 << 60, Writer: 99},
}

// Framed records written by an earlier encoder, whose Record carried a
// signature: signedFrame is Record{Key: "signed", Value: "v", Seq: 7,
// Writer: 2} with the 4-byte signature deadbeef, and plainFrame is
// Record{Key: "x", Value: "hello", Seq: 1} with none.
const (
	signedFrame = "00000023197fb0af" + "0006" + "7369676e6564" + "00000001" + "76" +
		"0000000000000007" + "0000000000000002" + "0004" + "deadbeef"
	plainFrame = "0000001ea8c6031d" + "0001" + "78" + "00000005" + "68656c6c6f" +
		"0000000000000001" + "0000000000000000" + "0000"
)

func mustHex(tb testing.TB, s string) []byte {
	tb.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestRecordEncodingUnchanged pins the bytes of a record without a
// signature to what the earlier encoder wrote, so old and new logs are
// one format.
func TestRecordEncodingUnchanged(t *testing.T) {
	buf, err := AppendRecord(nil, Record{Key: "x", Value: "hello", Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := mustHex(t, plainFrame); !bytes.Equal(buf, want) {
		t.Fatalf("AppendRecord = %x, want %x", buf, want)
	}
}

// TestLegacySignedRecord decodes a record that still carries a
// signature: DecodeRecord skips it, recovery replays it through Open,
// and a signature slot whose length is out of bounds or disagrees with
// its bytes still fails.
func TestLegacySignedRecord(t *testing.T) {
	want := Record{Key: "signed", Value: "v", Seq: 7, Writer: 2}
	frame := mustHex(t, signedFrame)
	payload := frame[recordHeaderLen:]
	got, err := DecodeRecord(payload)
	if err != nil || got != want {
		t.Fatalf("DecodeRecord = %+v, %v; want %+v", got, err, want)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got, ok := d.Get(want.Key); !ok || got != want {
		t.Fatalf("Get after Open = %+v, %v; want %+v", got, ok, want)
	}
	if st := d.Recovered(); st.WALRecords != 1 || st.TruncatedBytes != 0 {
		t.Fatalf("recovery replayed %d records and truncated %d bytes, want 1 and 0", st.WALRecords, st.TruncatedBytes)
	}

	sigLenAt := len(payload) - 4 - 2
	for _, tc := range []struct {
		name   string
		sigLen uint16
		sig    []byte
	}{
		{"siglen past MaxSigLen", MaxSigLen + 1, make([]byte, MaxSigLen+1)},
		{"siglen short of its bytes", 3, payload[sigLenAt+2:]},
		{"siglen past its bytes", 5, payload[sigLenAt+2:]},
	} {
		bad := binary.BigEndian.AppendUint16(bytes.Clone(payload[:sigLenAt]), tc.sigLen)
		bad = append(bad, tc.sig...)
		if rec, err := DecodeRecord(bad); err == nil {
			t.Errorf("%s: DecodeRecord accepted %+v", tc.name, rec)
		}
	}
}

// TestRecordSize pins a Record at 48 bytes on 64-bit targets: two string
// headers and two int64s. The engines keep their registers in a dense
// slab of Records, and a read probe's cost is the cache lines its lookup
// misses. In a line-aligned slab half of all 48-byte records sit inside
// one 64-byte line and the rest span two, where every 72-byte record, the
// size while it carried a signature slice, spanned at least two. A field
// added back has to be worth those misses, and this test is where it
// says so.
func TestRecordSize(t *testing.T) {
	if math.MaxInt != math.MaxInt64 {
		t.Skip("pinned for 64-bit targets")
	}
	if got := reflect.TypeFor[Record]().Size(); got != 48 {
		t.Fatalf("Record is %d bytes, want 48", got)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range recordCases {
		buf, err := AppendRecord(nil, rec)
		if err != nil {
			t.Fatalf("AppendRecord(%q): %v", rec.Key, err)
		}
		var got []Record
		n, err := scanRecords(buf, func(r Record) { got = append(got, r) })
		if err != nil {
			t.Fatalf("scanRecords(%q): %v", rec.Key, err)
		}
		if n != int64(len(buf)) {
			t.Fatalf("scanRecords(%q) consumed %d of %d bytes", rec.Key, n, len(buf))
		}
		if len(got) != 1 || got[0] != rec {
			t.Fatalf("round trip of %+v: got %+v", rec, got)
		}
	}
}

func TestAppendRecordConcatenation(t *testing.T) {
	var buf []byte
	var err error
	for _, rec := range recordCases {
		if buf, err = AppendRecord(buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	var got []Record
	if _, err := scanRecords(buf, func(r Record) { got = append(got, r) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recordCases) {
		t.Fatalf("decoded %d records, wrote %d", len(got), len(recordCases))
	}
	for i, rec := range recordCases {
		if got[i] != rec {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], rec)
		}
	}
}

func TestAppendRecordRejectsOversized(t *testing.T) {
	for _, rec := range []Record{
		{Key: strings.Repeat("k", MaxKeyLen+1)},
		{Value: strings.Repeat("v", MaxValueLen+1)},
	} {
		if _, err := AppendRecord(nil, rec); err == nil {
			t.Fatalf("AppendRecord accepted oversized record %+v", rec)
		}
	}
}

// TestScanRecordsFlaws feeds scanRecords every corruption class recovery
// must handle and asserts it stops exactly at the flaw with the intact
// prefix replayed — the contract the Disk engine's truncation relies on.
func TestScanRecordsFlaws(t *testing.T) {
	intact, err := AppendRecord(nil, Record{Key: "a", Value: "1", Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	second, err := AppendRecord(nil, Record{Key: "b", Value: "2", Seq: 2})
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(buf []byte, at int) []byte {
		out := append([]byte(nil), buf...)
		out[at] ^= 0xff
		return out
	}
	cases := []struct {
		name string
		buf  []byte
	}{
		{"torn header", append(append([]byte(nil), intact...), second[:3]...)},
		{"torn payload", append(append([]byte(nil), intact...), second[:len(second)-2]...)},
		{"corrupt crc", append(corrupt(intact, recordHeaderLen+1), second...)},
		{"absurd size", append(append([]byte(nil), 0xff, 0xff, 0xff, 0xff), intact...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []Record
			off, err := scanRecords(tc.buf, func(r Record) { got = append(got, r) })
			if err == nil {
				t.Fatal("scanRecords accepted corrupt input")
			}
			wantOff, wantRecs := int64(len(intact)), 1
			if tc.name == "corrupt crc" || tc.name == "absurd size" {
				wantOff, wantRecs = 0, 0
			}
			if off != wantOff || len(got) != wantRecs {
				t.Fatalf("recovered %d records to offset %d, want %d to %d (%v)", len(got), off, wantRecs, wantOff, err)
			}
		})
	}
}

func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range recordCases {
		buf, err := AppendRecord(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[recordHeaderLen:]) // the payload DecodeRecord sees
		f.Add(buf)                   // framed bytes as raw payload: torn-write shape
		f.Add(buf[:len(buf)-1])      // torn tail
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	signed := mustHex(f, signedFrame)
	f.Add(signed[recordHeaderLen:])
	f.Add(signed)
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		buf, err := AppendRecord(nil, rec)
		if err != nil {
			t.Fatalf("decoded record fails to re-encode: %v", err)
		}
		// Re-encoding gives back the payload with its signature slot
		// emptied: every byte up to siglen, then siglen 0.
		sigLenAt := 2 + len(rec.Key) + 4 + len(rec.Value) + 8 + 8
		want := append(bytes.Clone(payload[:sigLenAt]), 0, 0)
		if !bytes.Equal(buf[recordHeaderLen:], want) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", buf[recordHeaderLen:], want)
		}
	})
}

// FuzzScanRecords asserts the recovery scanner never panics and never
// claims an offset outside the buffer, whatever bytes a crash left
// behind.
func FuzzScanRecords(f *testing.F) {
	var all []byte
	for _, rec := range recordCases {
		buf, err := AppendRecord(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)-3])
		all = append(all, buf...)
	}
	f.Add(all)
	f.Add([]byte{})
	signed := mustHex(f, signedFrame)
	f.Add(signed)
	f.Add(append(signed, all...))
	f.Fuzz(func(t *testing.T, buf []byte) {
		off, err := scanRecords(buf, func(Record) {})
		if off < 0 || off > int64(len(buf)) {
			t.Fatalf("offset %d outside buffer of %d bytes", off, len(buf))
		}
		if err == nil && off != int64(len(buf)) {
			t.Fatalf("clean scan stopped at %d of %d bytes", off, len(buf))
		}
	})
}
