package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"bqs/internal/reconfig"
)

// Reconfiguration control frames. Clients and servers agree on the
// current configuration epoch with one extra frame kind (the gate that
// enforces it rides in every batch request, codec.go):
//
//	reconfig   := tagReconfig id:u64 kind:u8 body
//	body       := record               (kind install)
//	            | record | ε           (kinds state, wrongepoch: an empty
//	            |                       body means "nothing installed")
//	            | ε                    (kind query)
//	record     := epoch:u64 universe:u32 b:u16 outer:u32 kindlen:u8 kindname
//
// The kinds, and who sends them (kind 1, a retired per-connection epoch
// announce, is never reused):
//
//   - install (coordinator → server, answered with state): adopt the
//     record if its epoch is newer, merging the shard's replica state
//     into the replicas that remain in the new universe. Idempotent: a
//     record at or behind the shard's epoch just acks.
//   - query (client → server, answered with state): read the shard's
//     current record; the refresh path for a client told it is stale.
//   - state (server → client): the shard's current record, answering an
//     install or query by id.
//   - wrongepoch (server → client): the request with this id was
//     rejected because its frame's gate names an epoch that is not the
//     shard's; the body carries the shard's current record so the
//     client can refresh. To the quorum protocol the rejection reads as
//     Response{OK: false} — the retriable suspicion signal — never an
//     abort.
//
// The record's masking bound travels as u16: bounds past 65535 are
// rejected at encode time (a b that large needs a universe past
// MaxUniverse anyway). Both directions validate strictly — unknown kind
// bytes, out-of-range record fields and trailing bytes all reject the
// frame, mirroring the other decoders.
const (
	tagReconfig = 0x57

	reconfigHeaderLen = 1 + 8 + 1         // tag + id + kind
	recordWireLen     = 8 + 4 + 2 + 4 + 1 // epoch + universe + b + outer + kindlen
)

// ReconfigKind tags the role of a reconfig frame.
type ReconfigKind byte

const (
	// ReconfigInstall (coordinator → server) delivers a record to adopt;
	// answered with a state frame carrying the shard's record after.
	ReconfigInstall ReconfigKind = 2
	// ReconfigQuery (client → server) reads the shard's current record;
	// answered with a state frame.
	ReconfigQuery ReconfigKind = 3
	// ReconfigState (server → client) answers an install or query with
	// the shard's current record (empty body: nothing installed).
	ReconfigState ReconfigKind = 4
	// ReconfigWrongEpoch (server → client) rejects the request with this
	// id: its frame's gate names an epoch that is not the shard's. Carries
	// the shard's record so the client can refresh.
	ReconfigWrongEpoch ReconfigKind = 5
)

// String names the kind for logs.
func (k ReconfigKind) String() string {
	switch k {
	case ReconfigInstall:
		return "install"
	case ReconfigQuery:
		return "query"
	case ReconfigState:
		return "state"
	case ReconfigWrongEpoch:
		return "wrongepoch"
	}
	return fmt.Sprintf("reconfig(%d)", byte(k))
}

// ReconfigFrame is the decoded payload of a tagReconfig frame. Rec is
// meaningful for install, state and wrongepoch.
type ReconfigFrame struct {
	Kind ReconfigKind
	Rec  reconfig.Record
}

func appendRecord(dst []byte, rec reconfig.Record) ([]byte, error) {
	if err := rec.Validate(); err != nil {
		return dst, fmt.Errorf("wire: %w", err)
	}
	if rec.B > math.MaxUint16 {
		return dst, fmt.Errorf("wire: masking bound %d does not fit a record frame", rec.B)
	}
	dst = binary.BigEndian.AppendUint64(dst, rec.Epoch)
	dst = binary.BigEndian.AppendUint32(dst, uint32(rec.Universe))
	dst = binary.BigEndian.AppendUint16(dst, uint16(rec.B))
	dst = binary.BigEndian.AppendUint32(dst, uint32(rec.Outer))
	dst = append(dst, byte(len(rec.Kind)))
	return append(dst, rec.Kind...), nil
}

func decodeRecord(p []byte) (reconfig.Record, []byte, error) {
	if len(p) < recordWireLen {
		return reconfig.Record{}, nil, fmt.Errorf("wire: truncated record header (%d bytes)", len(p))
	}
	var rec reconfig.Record
	rec.Epoch = binary.BigEndian.Uint64(p)
	rec.Universe = int(binary.BigEndian.Uint32(p[8:]))
	rec.B = int(binary.BigEndian.Uint16(p[12:]))
	rec.Outer = int(binary.BigEndian.Uint32(p[14:]))
	klen := int(p[18])
	p = p[recordWireLen:]
	if len(p) < klen {
		return reconfig.Record{}, nil, fmt.Errorf("wire: truncated record kind (%d of %d bytes)", len(p), klen)
	}
	rec.Kind = string(p[:klen])
	if err := rec.Validate(); err != nil {
		return reconfig.Record{}, nil, fmt.Errorf("wire: %w", err)
	}
	return rec, p[klen:], nil
}

// AppendReconfig appends a complete reconfig frame (length prefix
// included) correlated by id. Records are validated at encode time,
// mirroring the decoder, so a malformed record fails at the caller
// instead of poisoning the stream.
func AppendReconfig(dst []byte, id uint64, f ReconfigFrame) ([]byte, error) {
	body := make([]byte, 0, recordWireLen+reconfig.MaxKindLen)
	switch f.Kind {
	case ReconfigQuery:
	case ReconfigState, ReconfigWrongEpoch:
		// The zero record travels as an empty body: a shard that has not
		// installed anything yet still answers queries and refuses stale
		// gates.
		if f.Rec == (reconfig.Record{}) {
			break
		}
		fallthrough
	case ReconfigInstall:
		var err error
		if body, err = appendRecord(body, f.Rec); err != nil {
			return dst, err
		}
	default:
		return dst, fmt.Errorf("wire: unknown reconfig kind %d", byte(f.Kind))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(reconfigHeaderLen+len(body)))
	dst = append(dst, tagReconfig)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = append(dst, byte(f.Kind))
	return append(dst, body...), nil
}

// DecodeReconfig parses a reconfig payload. Unknown kind bytes, invalid
// record fields and trailing bytes are all rejected — a future protocol
// revision must not be half-understood silently.
func DecodeReconfig(p []byte) (id uint64, f ReconfigFrame, err error) {
	if len(p) < reconfigHeaderLen {
		return 0, ReconfigFrame{}, fmt.Errorf("wire: reconfig payload of %d bytes shorter than header %d", len(p), reconfigHeaderLen)
	}
	if p[0] != tagReconfig {
		return 0, ReconfigFrame{}, fmt.Errorf("wire: payload tag %#x is not a reconfig frame", p[0])
	}
	id = binary.BigEndian.Uint64(p[1:])
	f.Kind = ReconfigKind(p[9])
	body := p[reconfigHeaderLen:]
	switch f.Kind {
	case ReconfigQuery:
		if len(body) != 0 {
			return 0, ReconfigFrame{}, fmt.Errorf("wire: %d trailing bytes after query", len(body))
		}
		return id, f, nil
	case ReconfigInstall, ReconfigState, ReconfigWrongEpoch:
		if len(body) == 0 && f.Kind != ReconfigInstall {
			return id, f, nil // empty state/wrongepoch: nothing installed
		}
		rec, rest, err := decodeRecord(body)
		if err != nil {
			return 0, ReconfigFrame{}, err
		}
		if len(rest) != 0 {
			return 0, ReconfigFrame{}, fmt.Errorf("wire: %d trailing bytes after record", len(rest))
		}
		f.Rec = rec
		return id, f, nil
	}
	return 0, ReconfigFrame{}, fmt.Errorf("wire: unknown reconfig kind %d", p[9])
}
