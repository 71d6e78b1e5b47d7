package store

import (
	"testing"

	"bqs/internal/obs"
)

// TestDiskMetrics drives the durable engine with a registry attached and
// pins every series the telemetry plane exposes for it: WAL appends and
// bytes, fsync batches (count and records-per-fsync distribution),
// snapshots, and a recovery-time observation per Open/Reopen.
func TestDiskMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := Open(t.TempDir(), WithFsync(false), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	recovery := reg.Histogram("bqs_store_recovery_seconds", obs.DurationBuckets)
	if recovery.Count() != 1 {
		t.Fatalf("recovery observations after Open = %d, want 1", recovery.Count())
	}

	const records = 200
	for i := 0; i < records; i++ {
		mustApply(t, d, Record{Key: "k", Value: "v", Seq: int64(i), Writer: 0})
	}

	if v, _ := reg.Value("bqs_store_wal_appends_total"); v != records {
		t.Fatalf("bqs_store_wal_appends_total = %v, want %d", v, records)
	}
	if v, _ := reg.Value("bqs_store_wal_bytes_total"); v <= 0 {
		t.Fatalf("bqs_store_wal_bytes_total = %v, want > 0", v)
	}
	// fsync=false: flushes happen, fsyncs do not — the two series must
	// not be conflated.
	if v, _ := reg.Value("bqs_store_fsyncs_total"); v != 0 {
		t.Fatalf("bqs_store_fsyncs_total = %v under fsync=false, want 0", v)
	}
	batch := reg.Histogram("bqs_store_fsync_batch_size", obs.SizeBuckets)
	if batch.Count() != d.Flushes() {
		t.Fatalf("batch-size observations = %d, want one per flush (%d)", batch.Count(), d.Flushes())
	}
	// Every appended record sits in exactly one group-commit batch.
	if int64(batch.Sum()) != records {
		t.Fatalf("batch-size sum = %v, want %d records total", batch.Sum(), records)
	}

	if err := d.snapshot(); err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Value("bqs_store_snapshots_total"); v != 1 {
		t.Fatalf("bqs_store_snapshots_total = %v, want 1", v)
	}

	if err := d.Reopen(); err != nil {
		t.Fatal(err)
	}
	if recovery.Count() != 2 {
		t.Fatalf("recovery observations after Reopen = %d, want 2", recovery.Count())
	}

	// With fsync on, each flush counts one fsync.
	reg2 := obs.NewRegistry()
	d2, err := Open(t.TempDir(), WithFsync(true), WithMetrics(reg2))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for i := 0; i < 10; i++ {
		mustApply(t, d2, Record{Key: "k", Value: "v", Seq: int64(i)})
	}
	fsyncs, _ := reg2.Value("bqs_store_fsyncs_total")
	if fsyncs != float64(d2.Flushes()) {
		t.Fatalf("bqs_store_fsyncs_total = %v, want one per flush (%d)", fsyncs, d2.Flushes())
	}
	if fsyncs == 0 {
		t.Fatal("no fsyncs recorded under fsync=true")
	}
}

// TestDiskMetricsShared pins the get-or-create sharing the binaries rely
// on: many stores behind one registry fold into a single series set, so
// a 25-replica daemon exposes one WAL-append counter, not 25.
func TestDiskMetricsShared(t *testing.T) {
	reg := obs.NewRegistry()
	for i := 0; i < 3; i++ {
		d, err := Open(t.TempDir(), WithFsync(false), WithMetrics(reg))
		if err != nil {
			t.Fatal(err)
		}
		mustApply(t, d, Record{Key: "k", Value: "v", Seq: 1})
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := reg.Value("bqs_store_wal_appends_total"); v != 3 {
		t.Fatalf("shared bqs_store_wal_appends_total = %v, want 3 (one per store)", v)
	}
	if h := reg.Histogram("bqs_store_recovery_seconds", obs.DurationBuckets); h.Count() != 3 {
		t.Fatalf("recovery observations = %d, want 3", h.Count())
	}
}
