package sim

import "sync"

// This file implements the OTHER quorum variety of [MR98a] that the paper
// mentions in Section 3: dissemination quorum systems, used for
// self-verifying data (e.g. digitally signed values). Because a Byzantine
// server cannot forge a valid signature, quorum intersections only need
// b+1 servers — enough that at least one CORRECT server lies in every
// intersection and relays the newest authentic value; fabricated values
// simply fail verification. We simulate unforgeability with an
// authenticator registry: writers register the exact (key, value,
// timestamp) triples they produce, and readers accept only registered
// triples. Binding the key into the signature matters in the keyed data
// plane: without it a Byzantine server could replay key A's legitimately
// signed value as an answer for key B, and the replay would verify.

// signedEntry is the unit the simulated signature covers: the register
// key plus the tagged value, so a signature for one key cannot vouch for
// another key's state.
type signedEntry struct {
	Key string
	TV  TaggedValue
}

// Authenticator is the stand-in for a signature scheme: (key, value)
// pairs registered by writers verify; anything else does not. It is
// shared by all clients of a cluster (like a public-key directory).
type Authenticator struct {
	mu     sync.Mutex
	signed map[signedEntry]struct{}
}

// NewAuthenticator returns an empty registry.
func NewAuthenticator() *Authenticator {
	return &Authenticator{signed: make(map[signedEntry]struct{})}
}

// Sign registers a value as authentic for key.
func (a *Authenticator) Sign(key string, tv TaggedValue) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.signed[signedEntry{key, tv}] = struct{}{}
}

// Verify reports whether tv was produced by a legitimate writer for key.
func (a *Authenticator) Verify(key string, tv TaggedValue) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.signed[signedEntry{key, tv}]
	return ok
}

// NewDisseminationClient attaches a dissemination-protocol client: the
// same Client as NewClient returns, believing replies by the signed rule
// instead of the masking one. Reads return the highest-timestamped
// VERIFIED value from a quorum, with no b+1 vouching requirement, so it
// needs the quorum system to have IS ≥ b+1 rather than 2b+1.
func (c *Cluster) NewDisseminationClient(id int, auth *Authenticator) *Client {
	return c.newClient(id, signed{auth})
}

// signed is the dissemination rule: believe exactly what verifies. A
// Byzantine server cannot sign, so one correct server in the intersection
// is enough and nothing needs votes.
type signed struct{ auth *Authenticator }

// timestampOp is OpRead: a timestamp is believable only with the value
// it was signed with, so the timestamp phase needs whole replies.
func (signed) timestampOp() Op { return OpRead }

// timestamp returns the largest verified timestamp — the zero one for a
// key no writer has signed anything for. Byzantine servers cannot inflate
// the clock because they cannot sign.
func (s signed) timestamp(key string, replies []Response) Timestamp {
	tv, _ := s.value(key, replies)
	return tv.TS
}

// value returns the highest-timestamped reply that verifies for key.
func (s signed) value(key string, replies []Response) (TaggedValue, bool) {
	best, found := TaggedValue{}, false
	for _, resp := range replies {
		if s.auth.Verify(key, resp.Value) && (!found || best.TS.Less(resp.Value.TS)) {
			best, found = resp.Value, true
		}
	}
	return best, found
}

// sign registers (key, tv) with the authenticator, so every reader
// sharing it verifies the value.
func (s signed) sign(key string, tv TaggedValue) { s.auth.Sign(key, tv) }
