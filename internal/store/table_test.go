package store

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestTableMatchesMapModel drives Mem and Disk through seeded random
// Applies — older, equal and newer timestamps on new and known keys —
// checking every Get against a map[string]Record model, and Range,
// Reopen (Disk must come back whole, Mem empty) and Close at each
// growth boundary of the index up to 2^15 keys. It runs twice: with the
// real hash, and with one that puts every key on one tag, so every probe
// that meets an occupied slot has to compare keys.
func TestTableMatchesMapModel(t *testing.T) {
	for _, oneTag := range []bool{false, true} {
		t.Run(fmt.Sprintf("oneTag=%v", oneTag), func(t *testing.T) {
			if oneTag {
				real := hashKey
				hashKey = func(key string) uint64 { return 0xabcd<<32 | real(key)&0xffffffff }
				t.Cleanup(func() { hashKey = real })
			}
			disk, err := Open(t.TempDir(), WithFsync(false), snapshotAt(1<<16))
			if err != nil {
				t.Fatal(err)
			}
			runTableModel(t, map[string]Store{"mem": NewMem(), "disk": disk})
		})
	}
}

func runTableModel(t *testing.T, engines map[string]Store) {
	const maxKeys = 1 << 15
	rng := rand.New(rand.NewSource(40))
	model := make(map[string]Record)
	keys := make([]string, 0, maxKeys)
	check := func(key string) {
		t.Helper()
		want, wok := model[key]
		for name, s := range engines {
			got, ok := s.Get(key)
			if ok != wok || got != want {
				t.Fatalf("%s: Get(%q) = %+v, %v; model has %+v, %v", name, key, got, ok, want, wok)
			}
		}
	}
	apply := func(rec Record) {
		t.Helper()
		for _, s := range engines {
			mustApply(t, s, rec)
		}
		if cur, ok := model[rec.Key]; !ok || rec.After(cur) {
			model[rec.Key] = rec
		}
		check(rec.Key)
	}
	for boundary := minSlots * 3 / 4; boundary <= maxKeys; boundary *= 2 {
		// Cross the boundary: the last new key lands one past it.
		for len(keys) <= boundary {
			key := fmt.Sprintf("key-%d-%x", len(keys), rng.Int63())
			keys = append(keys, key)
			rec := Record{Key: key, Value: "v0", Seq: rng.Int63n(4), Writer: rng.Int63n(3)}
			apply(rec)
			// Rewrite a known key with an older, equal or newer timestamp.
			old := model[keys[rng.Intn(len(keys))]]
			rec = old
			rec.Value = fmt.Sprintf("v%d", rng.Intn(1000))
			switch rng.Intn(3) {
			case 0:
				rec.Seq--
			case 1:
				rec.Writer += rng.Int63n(2)
			case 2:
				rec.Seq += 1 + rng.Int63n(3)
			}
			apply(rec)
		}
		check(fmt.Sprintf("absent-%d", boundary))
		want := make([]string, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sort.Strings(want)
		for name, s := range engines {
			var got []string
			s.Range(func(rec Record) bool {
				if rec != model[rec.Key] {
					t.Fatalf("%s: Range yields %+v, model has %+v", name, rec, model[rec.Key])
				}
				got = append(got, rec.Key)
				return true
			})
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: Range gives %d keys, model %d, or out of key order", name, len(got), len(want))
			}
		}
	}
	// Disk keeps everything across a restart; Mem keeps nothing.
	for name, s := range engines {
		if err := s.Reopen(); err != nil {
			t.Fatalf("%s: Reopen: %v", name, err)
		}
	}
	for _, k := range keys {
		want := model[k]
		if got, ok := engines["disk"].Get(k); !ok || got != want {
			t.Fatalf("disk after Reopen: Get(%q) = %+v, %v; want %+v", k, got, ok, want)
		}
		if _, ok := engines["mem"].Get(k); ok {
			t.Fatalf("mem after Reopen still holds %q", k)
		}
	}
	for name, s := range engines {
		if err := s.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		if err := s.Apply(Record{Key: keys[0], Seq: 1 << 40}); err != ErrClosed {
			t.Fatalf("%s: Apply after Close: %v, want ErrClosed", name, err)
		}
	}
}

// TestTableOverwriteAtThreshold fills a table to exactly three quarters
// of its index, 6 of 8 slots and 12,288 of 16,384, and rewrites every key
// with a newer and an older timestamp: an overwrite adds no key, so the
// index must not grow. The next new key grows it.
func TestTableOverwriteAtThreshold(t *testing.T) {
	for _, slots := range []int{minSlots, 1 << 14} {
		var tab table
		full := slots * 3 / 4
		for i := range full {
			tab.merge(Record{Key: fmt.Sprint(i), Seq: 1})
		}
		if len(tab.slots) != slots {
			t.Fatalf("%d keys in %d slots, want %d", full, len(tab.slots), slots)
		}
		for i := range full {
			key := fmt.Sprint(i)
			tab.merge(Record{Key: key, Value: "new", Seq: 2})
			tab.merge(Record{Key: key, Value: "old", Seq: 0})
			if rec, ok := tab.get(key, hashKey(key)); !ok || rec.Value != "new" {
				t.Fatalf("Get(%q) = %+v, %v after overwrites", key, rec, ok)
			}
		}
		if len(tab.recs) != full || len(tab.slots) != slots {
			t.Fatalf("overwrites left %d keys in %d slots, want %d in %d", len(tab.recs), len(tab.slots), full, slots)
		}
		tab.merge(Record{Key: "new", Seq: 1})
		if len(tab.slots) != 2*slots {
			t.Fatalf("key %d of %d slots grew the index to %d, want %d", full+1, slots, len(tab.slots), 2*slots)
		}
	}
}

// TestMemConcurrentGetApply runs two writers and two readers over one
// key set. Each writer owns a Writer id and counts its Seq up, so a
// reader must never see a key's timestamp go backwards, and the final
// record of every key is the newer of the two writers' last writes.
// Under -race it also checks the table is only touched under the lock.
func TestMemConcurrentGetApply(t *testing.T) {
	const keys, rounds = 512, 40
	s := NewMem()
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("k%04d", i)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := int64(0); w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := int64(1); seq <= rounds; seq++ {
				for _, k := range names {
					if err := s.Apply(Record{Key: k, Value: fmt.Sprint(w, seq), Seq: seq, Writer: w}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := make([]Record, keys)
			for {
				select {
				case <-done:
					return
				default:
				}
				for i, k := range names {
					rec, ok := s.Get(k)
					if !ok {
						continue
					}
					if rec.Key != k || last[i].After(rec) {
						t.Errorf("Get(%q) = %+v after %+v", k, rec, last[i])
						return
					}
					last[i] = rec
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	for _, k := range names {
		if rec, _ := s.Get(k); rec.Seq != rounds || rec.Writer != 1 {
			t.Fatalf("%s ends at (%d, %d), want (%d, 1)", k, rec.Seq, rec.Writer, rounds)
		}
	}
}

// BenchmarkColdGet is an in-memory read phase's store work: Mem stores
// holding 64-byte values, and each iteration one random key looked up at
// a quorum of them. The threshold arm is the benchmark's mem_kv shape, 13
// stores of 16,384 keys and a 10-member Threshold(13,3) read quorum; the
// mpath arm is mpath_read's, 100 stores of 1,024 keys and a 50-member
// phase, as an M-Path(10,3) quorum over n=100 probes. Either way the
// stores together outgrow the cache, so unlike a hot-key loop it measures
// the misses a lookup takes. One op is one phase.
func BenchmarkColdGet(b *testing.B) {
	for _, arm := range []struct {
		name                  string
		stores, keys, members int
	}{
		{"threshold", 13, 1 << 14, 10},
		{"mpath", 100, 1 << 10, 50},
	} {
		b.Run(arm.name, func(b *testing.B) { benchColdGet(b, arm.stores, arm.keys, arm.members) })
	}
}

func benchColdGet(b *testing.B, stores, keys, members int) {
	names := make([]string, keys)
	mems := make([]*Mem, stores)
	for i := range mems {
		mems[i] = NewMem()
	}
	for k := range names {
		names[k] = fmt.Sprintf("k%06d", k)
		rec := Record{Key: names[k], Value: fmt.Sprintf("%064d", k), Seq: 1}
		for _, m := range mems {
			if err := m.Apply(rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	var found int
	b.ResetTimer()
	for range b.N {
		key, first := names[rng.Intn(keys)], rng.Intn(stores)
		for j := range members {
			if rec, ok := mems[(first+j)%stores].Get(key); ok {
				found += len(rec.Value)
			}
		}
	}
	b.StopTimer()
	if found != b.N*members*64 {
		b.Fatalf("found %d value bytes, want %d", found, b.N*members*64)
	}
}
