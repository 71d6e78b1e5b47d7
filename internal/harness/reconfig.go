package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"bqs/internal/reconfig"
	"bqs/internal/sim"
	"bqs/internal/wire"
)

// ReconfigStep is one scheduled resize: at offset At from workload
// start, move the cluster to the quorum system Rec describes. Target
// keeps the user's spelling for logs.
type ReconfigStep struct {
	At     time.Duration
	Target string
	Rec    reconfig.Record
}

// DefaultReconfigTimeout bounds each scheduled step end to end —
// propose, drain, cut over, retire. A drain that cannot quiesce within
// it aborts the step (traffic resumes on the old epoch) instead of
// stalling the driver forever; the ISSUE's "bounded drain" acceptance
// check rides on this.
const DefaultReconfigTimeout = 30 * time.Second

// ParseReconfigSchedule parses the -reconfig flag, identically in both
// binaries: comma-separated "at=DURATION:TARGET" steps, where TARGET is
// a reconfig.ParseTarget spec — "at=5s:mgrid:36,at=20s:compose:6x6".
// Steps must be in strictly increasing time order. Every target is
// built once here, so a typo fails at flag parsing, not mid-run. The
// empty spec parses to a nil schedule (no reconfiguration).
func ParseReconfigSchedule(spec string, b int) ([]ReconfigStep, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var steps []ReconfigStep
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		rest, ok := strings.CutPrefix(entry, "at=")
		if !ok {
			return nil, fmt.Errorf("reconfig step %q: want at=DURATION:TARGET (e.g. at=5s:mgrid:36)", entry)
		}
		durStr, target, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("reconfig step %q: missing target after the duration", entry)
		}
		at, err := time.ParseDuration(durStr)
		if err != nil {
			return nil, fmt.Errorf("reconfig step %q: %w", entry, err)
		}
		if at < 0 {
			return nil, fmt.Errorf("reconfig step %q: negative offset", entry)
		}
		rec, err := reconfig.ParseTarget(target, b)
		if err != nil {
			return nil, fmt.Errorf("reconfig step %q: %w", entry, err)
		}
		if len(steps) > 0 && at <= steps[len(steps)-1].At {
			return nil, fmt.Errorf("reconfig step %q: offsets must strictly increase", entry)
		}
		steps = append(steps, ReconfigStep{At: at, Target: target, Rec: rec})
	}
	return steps, nil
}

// MaxReconfigUniverse is the largest universe the run will ever address:
// the boot system's n or any scheduled target's, whichever is bigger.
// bqs-client checks route coverage against it, so a resize never
// discovers a missing shard address mid-drain.
func MaxReconfigUniverse(n int, steps []ReconfigStep) int {
	for _, s := range steps {
		if s.Rec.Universe > n {
			n = s.Rec.Universe
		}
	}
	return n
}

// StartReconfig prints the schedule banner and starts replaying it
// against a live cluster beside a workload. On an empty schedule it
// returns a nil driver. Each applied step prints the canonical cutover
// line
//
//	reconfig: epoch E cutover to TARGET (n=N) — drain D, total T, K keys handed off
//
// which the CI rolling-resize smoke greps for. Unlike churn — where a
// missed flip is telemetry — an aborted resize is a failed acceptance
// criterion: the cluster is still on the old epoch and the run's claims
// about the new system do not hold, so Stop returns the first abort
// after printing the applied/aborted/missed summary.
func StartReconfig(cluster *sim.Cluster, steps []ReconfigStep) *Driver {
	if len(steps) == 0 {
		return nil
	}
	fmt.Printf("reconfig: %d resizes scheduled, first at +%v, last at +%v\n",
		len(steps), steps[0].At, steps[len(steps)-1].At)
	var (
		applied, aborted int
		missed           int // steps still pending (or cancelled mid-flight) at Stop
		firstErr         error
	)
	start := time.Now()
	run := func(ctx context.Context) error {
		for _, step := range steps {
			timer := time.NewTimer(time.Until(start.Add(step.At)))
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				missed++
				return nil
			}
			stepCtx, stepCancel := context.WithTimeout(ctx, DefaultReconfigTimeout)
			rep, err := cluster.Reconfigure(stepCtx, step.Rec)
			stepCancel()
			switch {
			case err == nil:
				applied++
			case errors.Is(err, context.Canceled):
				// The run boundary interrupted the step; counted as missed,
				// not aborted — the workload simply ended first.
				missed++
			default:
				aborted++
				if firstErr == nil {
					firstErr = fmt.Errorf("reconfig to %s at +%v: %w", step.Target, step.At, err)
				}
			}
			if err != nil {
				fmt.Printf("reconfig: step to %s at +%v failed: %v\n", step.Target, step.At, err)
				continue
			}
			fmt.Printf("reconfig: epoch %d cutover to %s (n=%d) — drain %v, total %v, %d keys handed off\n",
				rep.Record.Epoch, step.Target, rep.Record.Universe,
				rep.Drain.Round(time.Millisecond), rep.Total.Round(time.Millisecond), rep.HandoffKeys)
		}
		return nil
	}
	return startDriver(run, func(error) error {
		fmt.Printf("reconfig: %d applied, %d aborted, %d missed\n", applied, aborted, missed)
		return firstErr
	})
}

// EpochFollower self-heals the epoch plane of a wire-backed client: its
// OnStale method is the wire.WithEpochs callback, and once Bind has
// handed it the transport and cluster it reacts to wrongepoch bounces
// in the background. A shard ahead of us (another coordinator resized
// the fleet) is caught up to by adopting its record locally; a shard
// behind us (it restarted and lost its epoch) gets the current record
// re-pushed. Before Bind, bounces are ignored — the dial happens before
// the cluster exists, and nothing can be stale that early.
type EpochFollower struct {
	mu      sync.Mutex
	tr      *wire.Client
	cluster *sim.Cluster
	busy    bool
}

// Bind hands the follower the live transport and cluster; OnStale is
// inert until then.
func (f *EpochFollower) Bind(tr *wire.Client, cluster *sim.Cluster) {
	f.mu.Lock()
	f.tr, f.cluster = tr, cluster
	f.mu.Unlock()
}

// OnStale is the wire.WithEpochs callback. It runs on a connection read
// loop, so it only inspects state and hands real work to a goroutine;
// at most one repair runs at a time, and repeated bounces while one is
// in flight are dropped (the repair will re-announce everything anyway).
func (f *EpochFollower) OnStale(rec reconfig.Record) {
	f.mu.Lock()
	tr, cluster := f.tr, f.cluster
	if cluster == nil || f.busy {
		f.mu.Unlock()
		return
	}
	f.busy = true
	f.mu.Unlock()
	go func() {
		defer func() {
			f.mu.Lock()
			f.busy = false
			f.mu.Unlock()
		}()
		ctx, cancel := context.WithTimeout(context.Background(), DefaultReconfigTimeout)
		defer cancel()
		if rec.Epoch > cluster.Epoch() {
			if _, err := cluster.Reconfigure(ctx, rec); err != nil {
				fmt.Printf("reconfig: follower could not adopt epoch %d: %v\n", rec.Epoch, err)
				return
			}
			fmt.Printf("reconfig: follower adopted %s from a shard ahead of us\n", rec.String())
			return
		}
		// A shard answered with an older epoch than ours: re-push the
		// record we are on so it rejoins the current configuration.
		cur, ok := tr.CurrentRecord()
		if !ok || cur.Epoch <= rec.Epoch {
			return
		}
		if err := tr.InstallEpoch(ctx, cur); err != nil {
			fmt.Printf("reconfig: follower could not re-push %s: %v\n", cur.String(), err)
			return
		}
		fmt.Printf("reconfig: follower re-pushed %s to a lagging shard\n", cur.String())
	}()
}
