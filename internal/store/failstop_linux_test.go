package store

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"bqs/internal/obs"
)

// failStopDirEnv names the data directory of TestDiskFailsStop's child
// process; the test runs its body only where it is set.
const failStopDirEnv = "BQS_STORE_FAILSTOP_DIR"

// TestDiskFailsStop: a WAL append that fails part-way stops the log. The
// body runs in a re-executed test binary, because it lowers the process's
// RLIMIT_FSIZE to make the write fail: four records are acked, the fifth
// append tears past the limit, and then, with the limit restored, no
// Stage may succeed until Reopen — a record appended after the torn bytes
// would be acked and then cut away by recovery along with them. Err
// reports the stop, the failed commit is counted and the stop logged as
// an event naming the directory. After Reopen Err is nil, every acked
// record is there and every nacked one is gone, and the store takes
// writes again.
func TestDiskFailsStop(t *testing.T) {
	if dir := os.Getenv(failStopDirEnv); dir != "" {
		failStop(t, dir)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestDiskFailsStop$", "-test.count=1")
	cmd.Env = append(os.Environ(), failStopDirEnv+"="+t.TempDir())
	out, err := cmd.CombinedOutput()
	if err != nil || strings.Contains(string(out), "no tests to run") {
		t.Fatalf("child process: %v\n%s", err, out)
	}
}

func failStop(t *testing.T, dir string) {
	reg := obs.NewRegistry()
	d, err := Open(dir, WithMetrics(reg)) // fsync on, as in production
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	acked := []Record{{Key: "a", Value: "1", Seq: 1}, {Key: "b", Value: "1", Seq: 1}, {Key: "c", Value: "1", Seq: 1}, {Key: "d", Value: "1", Seq: 1}}
	for _, rec := range acked {
		mustApply(t, d, rec)
	}
	wal := filepath.Join(dir, walName)
	durable := fileSize(t, wal)

	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	tight := lim
	tight.Cur = uint64(durable) + 10 // the next append writes 10 bytes and fails
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &tight); err != nil {
		t.Fatal(err)
	}
	err = d.Apply(Record{Key: "torn", Value: "nacked", Seq: 1})
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); rerr != nil {
		t.Fatal(rerr)
	}
	if !errors.Is(err, syscall.EFBIG) {
		t.Fatalf("Apply past RLIMIT_FSIZE = %v, want EFBIG", err)
	}
	if got := fileSize(t, wal); got != durable+10 {
		t.Fatalf("wal is %d bytes after the failed append, want %d: the test needs a torn record", got, durable+10)
	}
	if err := d.Err(); !errors.Is(err, syscall.EFBIG) {
		t.Fatalf("Err after the failed append = %v, want an error wrapping EFBIG", err)
	}
	if v, _ := reg.Value("bqs_store_commit_failures_total"); v != 1 {
		t.Fatalf("bqs_store_commit_failures_total = %v after one failed commit, want 1", v)
	}
	if evs := reg.Events(); len(evs) != 1 || !strings.Contains(evs[0].Msg, dir) || !strings.Contains(evs[0].Msg, "file too large") {
		t.Fatalf("events = %+v, want one naming %s and the error", evs, dir)
	}

	for _, key := range []string{"after", "d"} {
		_, err := d.Stage(Record{Key: key, Value: "nacked", Seq: 2})
		if !errors.Is(err, syscall.EFBIG) {
			t.Fatalf("Stage(%s) on a stopped log = %v, want an error wrapping the append's EFBIG", key, err)
		}
	}
	if got := fileSize(t, wal); got != durable+10 {
		t.Fatalf("wal grew from %d to %d bytes after the failed append", durable+10, got)
	}

	if err := d.Reopen(); err != nil {
		t.Fatal(err)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err after Reopen = %v, want nil", err)
	}
	mustApply(t, d, Record{Key: "after", Value: "acked", Seq: 3})
	check := func(s Store, when string) {
		t.Helper()
		for _, want := range append(acked, Record{Key: "after", Value: "acked", Seq: 3}) {
			if got, ok := s.Get(want.Key); !ok || got != want {
				t.Errorf("%s: acked %s reads %+v (held %v), want %+v", when, want.Key, got, ok, want)
			}
		}
		if got, ok := s.Get("torn"); ok {
			t.Errorf("%s: the nacked record survived recovery: %+v", when, got)
		}
	}
	check(d, "after Reopen")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	check(fresh, "after a fresh Open")
}
