package store

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bqs/internal/obs"
)

// TestLoneApplyPaysOneFsync pins the group commit's cost to a writer with
// no company: an Apply on an idle fsynced Disk pays about one write+fsync,
// not a timer. Apply and a raw write+fsync on a file in the same
// directory alternate, so a slow spell of the device hits both sides; a
// flusher that waited on a timer before each commit (a 500 µs sleep cost
// ≈ 1.1 ms) fails by a wide margin.
func TestLoneApplyPaysOneFsync(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	raw, err := os.Create(filepath.Join(dir, "raw"))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	buf, err := AppendRecord(nil, Record{Key: "k", Value: "v", Seq: 1})
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 40
	var applies, fsyncs []time.Duration
	for i := range rounds {
		start := time.Now()
		mustApply(t, d, Record{Key: "k", Value: "v", Seq: int64(i + 1)})
		applies = append(applies, time.Since(start))

		start = time.Now()
		if _, err := raw.Write(buf); err != nil {
			t.Fatal(err)
		}
		if err := raw.Sync(); err != nil {
			t.Fatal(err)
		}
		fsyncs = append(fsyncs, time.Since(start))
	}
	apply, fsync := median(applies), median(fsyncs)
	bound := 2*fsync + 250*time.Microsecond
	t.Logf("median lone Apply %v, median raw write+fsync %v (bound %v)", apply, fsync, bound)
	if apply > bound {
		t.Fatalf("a lone Apply takes %v against %v for a raw write+fsync: the flusher waits on more than the device", apply, fsync)
	}
}

// TestFlusherYieldCarriesLateStages drives the flush rule through its
// yield seam: the records staged while the flusher yields — d.mu is
// released for it — ride the same commit and the same fsync as the one
// that started the flusher.
func TestFlusherYieldCarriesLateStages(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := Open(t.TempDir(), WithMetrics(reg)) // fsync on: the yield is skipped without it
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const late = 7
	var commits []*Commit
	var yields int
	d.yield = func() {
		yields++
		for i := range late {
			c, err := d.Stage(Record{Key: fmt.Sprintf("late%d", i), Value: "v", Seq: 1})
			if err != nil {
				t.Error(err)
				return
			}
			commits = append(commits, c)
		}
	}
	first, err := d.Stage(Record{Key: "first", Value: "v", Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	// The commit finishes after the yield returned, so what the yield
	// recorded is visible here.
	if yields != 1 || len(commits) != late {
		t.Fatalf("the flusher yielded %d times staging %d records; want once, %d records", yields, len(commits), late)
	}
	for i, c := range commits {
		if c != first {
			t.Fatalf("record %d staged during the yield got a commit of its own", i)
		}
	}
	batch := reg.Histogram("bqs_store_fsync_batch_size", obs.SizeBuckets)
	if f := d.Flushes(); f != 1 || batch.Count() != 1 || batch.Sum() != 1+late {
		t.Fatalf("%d flushes, %d batch-size observations summing to %v; want one flush of %d records",
			f, batch.Count(), batch.Sum(), 1+late)
	}
}

// BenchmarkDiskApply measures a fsynced Apply alone and among 16
// concurrent writers, and reports how many records each fsync carried:
// one writer shows the latency floor a group commit adds to a write, 16
// the batching that amortizes the fsync.
func BenchmarkDiskApply(b *testing.B) {
	for _, writers := range []int{1, 16} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			d, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := range writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					key := fmt.Sprintf("k%d", w)
					for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
						if err := d.Apply(Record{Key: key, Value: "v", Seq: i}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/float64(d.Flushes()), "records/fsync")
		})
	}
}

func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}
