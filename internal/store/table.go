package store

import (
	"hash/maphash"
	"slices"
	"strings"
)

// table is the register map both engines keep in memory: one Record per
// key, merged last-writer-wins. The records sit in a dense slab in
// insertion order, and an open-addressing index of 8-byte slots maps a
// key to its slab position. A slot holds the key hash's top 32 bits (its
// tag) above the record's slab index plus one, so zero marks an empty
// slot and a probe compares keys only when the tags match. The Store API
// never deletes a key, so the index is insert-only: it has no tombstones,
// and growing it rehashes the slab. A lookup reads one slot line and the
// record's line, or two.
//
// A table is not safe for concurrent use; each engine guards its own.
type table struct {
	recs  []Record
	slots []uint64
}

// minSlots is the index size of a table's first insert.
const minSlots = 8

var hashSeed = maphash.MakeSeed()

// hashKey hashes a key for the index. The low bits choose the home slot
// and the high 32 bits are the tag. Tests replace it to put every key on
// one tag.
var hashKey = func(key string) uint64 { return maphash.String(hashSeed, key) }

// lookup returns the slot holding key, whose hash is h, or the empty
// slot where its probe ended, and the record's slab index (-1 when key is
// absent). A non-empty index always has room: at least one empty slot.
func (t *table) lookup(key string, h uint64) (slot uint64, idx int) {
	if len(t.slots) == 0 {
		return 0, -1
	}
	mask := uint64(len(t.slots) - 1)
	tag := h >> 32
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return i, -1
		}
		if s>>32 == tag {
			if idx := int(uint32(s)) - 1; t.recs[idx].Key == key {
				return i, idx
			}
		}
	}
}

// get returns key's record; h is hashKey(key).
func (t *table) get(key string, h uint64) (Record, bool) {
	if _, idx := t.lookup(key, h); idx >= 0 {
		return t.recs[idx], true
	}
	return Record{}, false
}

// merge stores rec when its key is new or rec is strictly newer than the
// key's record: last-writer-wins by timestamp, the one merge rule of
// every engine, so replaying any superset of the writes in any order
// converges to the same state.
func (t *table) merge(rec Record) {
	h := hashKey(rec.Key)
	slot, idx := t.lookup(rec.Key, h)
	switch {
	case idx < 0:
		t.recs = append(t.recs, rec)
		// Keep the index at most three quarters full, so probe runs stay
		// short. Only an insert fills it, and growing places rec too.
		if 4*len(t.recs) > 3*len(t.slots) {
			t.grow()
		} else {
			t.slots[slot] = h>>32<<32 | uint64(len(t.recs))
		}
	case rec.After(t.recs[idx]):
		t.recs[idx] = rec
	}
}

// grow doubles the index and re-places every record in it.
func (t *table) grow() {
	t.slots = make([]uint64, max(minSlots, 2*len(t.slots)))
	mask := uint64(len(t.slots) - 1)
	for idx := range t.recs {
		h := hashKey(t.recs[idx].Key)
		i := h & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = h>>32<<32 | uint64(idx+1)
	}
}

// sortByKey puts records in key order, the order Range promises.
func sortByKey(recs []Record) {
	slices.SortFunc(recs, func(a, b Record) int { return strings.Compare(a.Key, b.Key) })
}
