package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// WAL and snapshot files are a sequence of framed records:
//
//	record  := size:u32 crc:u32 payload
//	payload := keylen:u16 key vallen:u32 value seq:i64 writer:i64 siglen:u16 sig
//
// size is the payload length and crc is the CRC-32C (Castagnoli) of the
// payload, so a torn write — a crash mid-append leaves a partial record
// at the tail — is detected either by the size outrunning the file or by
// the checksum failing, and recovery truncates back to the last intact
// record. All integers are big-endian, matching the wire codec's
// convention.
//
// The sig slot is written empty and, on read, bounds-checked and skipped,
// so logs from when a Record carried a signature still recover.
const (
	recordHeaderLen = 4 + 4 // size + crc

	// MaxKeyLen and MaxValueLen bound a record's fields, mirroring the
	// wire codec's limits so anything that travelled a frame can be
	// logged; MaxSigLen bounds the skipped signature field. A size field
	// past MaxPayload can only be corruption and stops recovery without
	// attempting the allocation.
	MaxKeyLen   = 1 << 12
	MaxValueLen = 1 << 16
	MaxSigLen   = 1 << 10

	payloadOverhead = 2 + 4 + 8 + 8 + 2 // keylen + vallen + seq + writer + siglen

	// MaxPayload is the largest well-formed record payload.
	MaxPayload = payloadOverhead + MaxKeyLen + MaxValueLen + MaxSigLen
)

// castagnoli is the CRC-32C table; crc32.MakeTable memoizes it globally.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord appends the framed form of rec to dst and returns the
// extended slice, rejecting oversized fields (the encode-side mirror of
// DecodeRecord's checks, so nothing unreadable is ever written).
func AppendRecord(dst []byte, rec Record) ([]byte, error) {
	if len(rec.Key) > MaxKeyLen {
		return dst, fmt.Errorf("store: key of %d bytes exceeds %d", len(rec.Key), MaxKeyLen)
	}
	if len(rec.Value) > MaxValueLen {
		return dst, fmt.Errorf("store: value of %d bytes exceeds %d", len(rec.Value), MaxValueLen)
	}
	size := payloadOverhead + len(rec.Key) + len(rec.Value)
	dst = binary.BigEndian.AppendUint32(dst, uint32(size))
	crcAt := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, 0) // checksum patched below
	payloadAt := len(dst)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(rec.Key)))
	dst = append(dst, rec.Key...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(rec.Value)))
	dst = append(dst, rec.Value...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(rec.Seq))
	dst = binary.BigEndian.AppendUint64(dst, uint64(rec.Writer))
	dst = binary.BigEndian.AppendUint16(dst, 0) // siglen: no signature
	crc := crc32.Checksum(dst[payloadAt:], castagnoli)
	binary.BigEndian.PutUint32(dst[crcAt:], crc)
	return dst, nil
}

// DecodeRecord parses one record payload (the bytes after the
// size+crc header, which the caller has already length- and
// checksum-verified against the frame). Every length field is
// bounds-checked against both its limit and the remaining payload, and
// trailing garbage after the signature is rejected, so a payload either
// decodes to exactly one well-formed record or errors.
func DecodeRecord(p []byte) (Record, error) {
	var rec Record
	if len(p) < payloadOverhead {
		return rec, fmt.Errorf("store: record payload of %d bytes, need at least %d", len(p), payloadOverhead)
	}
	keyLen := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	if keyLen > MaxKeyLen {
		return rec, fmt.Errorf("store: key length %d exceeds %d", keyLen, MaxKeyLen)
	}
	if len(p) < keyLen+4 {
		return rec, fmt.Errorf("store: record truncated inside key")
	}
	rec.Key = string(p[:keyLen])
	p = p[keyLen:]
	valLen := int(binary.BigEndian.Uint32(p))
	p = p[4:]
	if valLen > MaxValueLen {
		return rec, fmt.Errorf("store: value length %d exceeds %d", valLen, MaxValueLen)
	}
	if len(p) < valLen+8+8+2 {
		return rec, fmt.Errorf("store: record truncated inside value")
	}
	rec.Value = string(p[:valLen])
	p = p[valLen:]
	rec.Seq = int64(binary.BigEndian.Uint64(p))
	rec.Writer = int64(binary.BigEndian.Uint64(p[8:]))
	sigLen := int(binary.BigEndian.Uint16(p[16:]))
	p = p[18:]
	if sigLen > MaxSigLen {
		return rec, fmt.Errorf("store: signature length %d exceeds %d", sigLen, MaxSigLen)
	}
	if len(p) != sigLen {
		return rec, fmt.Errorf("store: record has %d signature bytes, header says %d", len(p), sigLen)
	}
	return rec, nil // the signature, if any, is skipped
}

// scanRecords walks the framed records in buf, calling fn for each
// intact one, and returns the byte offset of the first flaw — a size
// field outrunning the buffer or the limits, a checksum mismatch, or a
// payload that does not decode — along with a nil error when the whole
// buffer was intact, or a descriptive error for the flaw. The offset is
// the consistent prefix: everything before it replayed, everything from
// it on is a torn or corrupt tail the caller truncates away.
func scanRecords(buf []byte, fn func(Record)) (int64, error) {
	off := 0
	for off < len(buf) {
		rest := buf[off:]
		if len(rest) < recordHeaderLen {
			return int64(off), fmt.Errorf("store: torn record header (%d trailing bytes)", len(rest))
		}
		size := int(binary.BigEndian.Uint32(rest))
		if size < payloadOverhead || size > MaxPayload {
			return int64(off), fmt.Errorf("store: record size %d outside [%d,%d]", size, payloadOverhead, MaxPayload)
		}
		if len(rest) < recordHeaderLen+size {
			return int64(off), fmt.Errorf("store: torn record (%d of %d payload bytes)", len(rest)-recordHeaderLen, size)
		}
		payload := rest[recordHeaderLen : recordHeaderLen+size]
		if want, got := binary.BigEndian.Uint32(rest[4:]), crc32.Checksum(payload, castagnoli); want != got {
			return int64(off), fmt.Errorf("store: record checksum %#x, want %#x", got, want)
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return int64(off), err
		}
		fn(rec)
		off += recordHeaderLen + size
	}
	return int64(off), nil
}
