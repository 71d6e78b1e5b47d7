package sim

import (
	"errors"
	"strconv"
	"time"

	"bqs/internal/core"
	"bqs/internal/measures"
	"bqs/internal/obs"
)

// WithMetrics wires the cluster into an obs.Registry: per-server load
// gauges alongside the analytic L(Q) and Theorem 4.1 gauges, per-op
// latency spans (quorum pick, phase fan-out, per-server RTT), suspicion
// and retry counters, and the epoch/crash counters that turn
// ErrNoLiveQuorum sightings into a live crash-rate gauge comparable
// against CrashProbabilityExact. A nil registry leaves the cluster
// un-instrumented (the Noop path, identical to omitting the option).
func WithMetrics(reg *obs.Registry) Option {
	return func(c *config) error {
		c.metrics = reg
		return nil
	}
}

// clusterMetrics is the cluster's pre-resolved instrument set. Every
// field is nil when no registry is installed, and every obs method is a
// no-op on nil, so un-instrumented clusters pay one `on` check — never a
// map lookup or a time.Now — on the hot paths.
type clusterMetrics struct {
	on  bool
	reg *obs.Registry

	// Per-op spans.
	pickSeconds  *obs.Histogram // quorum selection, incl. rehabilitation probes
	phaseSeconds *obs.Histogram // one quorum fan-out (probe all members)
	probeSeconds *obs.Histogram // one server round trip (or one batch frame)
	readSeconds  *obs.Histogram // whole read op, successful only
	writeSeconds *obs.Histogram // whole write op, successful only
	batchOps     *obs.Histogram // items per batch frame

	// Failure-detector and retry traffic.
	retries       *obs.Counter
	suspicions    *obs.Counter
	forgivesTTL   *obs.Counter
	forgivesProbe *obs.Counter

	// Op outcomes: epochs counts every completed client operation, and
	// crashes the ones that died with core.ErrNoLiveQuorum — the live
	// numerator and denominator of the Definition 3.10 crash rate.
	epochs       *obs.Counter
	crashes      *obs.Counter
	failures     *obs.Counter
	noCandidates *obs.Counter

	// Reconfiguration plane: the current configuration epoch and
	// two-phase-install phase as gauges, plus per-resize counters and
	// durations (drain = the quiesce wait alone, duration = the whole
	// propose→retire span).
	epochGauge     *obs.Gauge     // bqs_cluster_epoch
	reconfigPhase  *obs.Gauge     // bqs_reconfig_phase (reconfig.Phase ordinal)
	installs       *obs.Counter   // bqs_reconfig_installs_total
	reconfigAborts *obs.Counter   // bqs_reconfig_aborts_total
	drainSeconds   *obs.Histogram // bqs_reconfig_drain_seconds
	reconfigSecs   *obs.Histogram // bqs_reconfig_duration_seconds
	handoffKeys    *obs.Counter   // bqs_reconfig_handoff_keys_total
}

// initMetrics resolves the cluster's instruments and registers the
// scrape-time gauges that read state the cluster already maintains.
func (c *Cluster) initMetrics(reg *obs.Registry) {
	m := &c.met
	m.on, m.reg = true, reg

	m.pickSeconds = reg.Histogram("bqs_quorum_pick_seconds", obs.DurationBuckets)
	m.phaseSeconds = reg.Histogram("bqs_quorum_phase_seconds", obs.DurationBuckets)
	m.probeSeconds = reg.Histogram("bqs_quorum_probe_seconds", obs.DurationBuckets)
	if c.mem != nil {
		c.mem.probe = m.probeSeconds
	}
	m.readSeconds = reg.Histogram("bqs_client_read_seconds", obs.DurationBuckets)
	m.writeSeconds = reg.Histogram("bqs_client_write_seconds", obs.DurationBuckets)
	m.batchOps = reg.Histogram("bqs_cluster_batch_ops", obs.SizeBuckets)

	m.retries = reg.Counter("bqs_client_retries_total")
	m.suspicions = reg.Counter("bqs_client_suspicions_total")
	m.forgivesTTL = reg.Counter("bqs_client_forgives_total", "reason", "ttl")
	m.forgivesProbe = reg.Counter("bqs_client_forgives_total", "reason", "probe")

	m.epochs = reg.Counter("bqs_system_epochs_total")
	m.crashes = reg.Counter("bqs_system_crash_epochs_total")
	m.failures = reg.Counter("bqs_client_failures_total")
	m.noCandidates = reg.Counter("bqs_client_no_candidate_total")

	m.epochGauge = reg.Gauge("bqs_cluster_epoch")
	m.reconfigPhase = reg.Gauge("bqs_reconfig_phase")
	m.installs = reg.Counter("bqs_reconfig_installs_total")
	m.reconfigAborts = reg.Counter("bqs_reconfig_aborts_total")
	m.drainSeconds = reg.Histogram("bqs_reconfig_drain_seconds", obs.DurationBuckets)
	m.reconfigSecs = reg.Histogram("bqs_reconfig_duration_seconds", obs.DurationBuckets)
	m.handoffKeys = reg.Counter("bqs_reconfig_handoff_keys_total")
	m.epochGauge.Set(float64(c.cur.Load().epoch))

	// Live load profile: bqs_server_load{server=i} is accesses[i]/phases,
	// the Definition 3.8 access frequency measured from live traffic; its
	// max is what should converge to the strategy-load gauge.
	for i := range c.cur.Load().servers {
		c.registerServerSeries(i)
	}
	reg.CounterFunc("bqs_cluster_phases_total", func() int64 {
		return c.retired.Load().phases + c.cur.Load().load.phases()
	})
	reg.GaugeFunc("bqs_cluster_peak_load", c.PeakLoad)

	// Analytic gauges: L_w(Q) of the installed strategy (NaN under
	// uniform) and the Theorem 4.1 lower bound when the system knows its
	// parameters. Both track the current epoch.
	reg.GaugeFunc("bqs_cluster_strategy_load", func() float64 { return c.cur.Load().stratLoad })
	c.setLowerBoundGauge()

	// Live fault mix, read from server state at scrape time.
	reg.GaugeFunc("bqs_cluster_crashed_servers", func() float64 {
		crashed, _ := c.FaultCounts()
		return float64(crashed)
	})
	reg.GaugeFunc("bqs_cluster_byzantine_servers", func() float64 {
		_, byz := c.FaultCounts()
		return float64(byz)
	})

	// Measured crash rate: the fraction of completed operations that
	// found no live quorum. In availability runs (one op per epoch) this
	// is exactly the Definition 3.10 empirical F_p(Q).
	reg.GaugeFunc("bqs_system_crash_rate", func() float64 {
		epochs := m.epochs.Value()
		if epochs == 0 {
			return 0
		}
		return float64(m.crashes.Value()) / float64(epochs)
	})
}

// registerServerSeries registers (or re-binds, after a resize) server
// i's scrape-time series. The closures hold the index, not the counter:
// they re-resolve the current epoch at every scrape, read 0 when the
// index has been resized away, and fold retired epochs' totals into the
// access counter so it stays monotonic across cutovers.
func (c *Cluster) registerServerSeries(i int) {
	reg, label := c.met.reg, strconv.Itoa(i)
	reg.GaugeFunc("bqs_server_load", func() float64 {
		load := &c.cur.Load().load
		phases := load.phases()
		if phases == 0 {
			return 0
		}
		return float64(load.accesses(i)) / float64(phases)
	}, "server", label)
	reg.CounterFunc("bqs_server_accesses_total", func() int64 {
		var total int64
		if rt := c.retired.Load(); i < len(rt.accesses) {
			total = rt.accesses[i]
		}
		return total + c.cur.Load().load.accesses(i)
	}, "server", label)
}

// setLowerBoundGauge publishes the Theorem 4.1 lower bound for the
// current epoch's system, when it knows its parameters.
func (c *Cluster) setLowerBoundGauge() {
	st := c.cur.Load()
	if p, ok := st.system.(core.Parameterized); ok {
		lower := measures.LoadLowerBound(st.system.UniverseSize(), c.b, p.MinQuorumSize())
		c.met.reg.Gauge("bqs_cluster_load_lower_bound").Set(lower)
	}
}

// Registry returns the registry installed with WithMetrics, or nil.
func (c *Cluster) Registry() *obs.Registry { return c.met.reg }

// opDone settles one completed client operation into the op-outcome
// counters and, on success, the per-op latency histogram. Callers guard
// with m.on so the un-instrumented path never reads the clock.
func (m *clusterMetrics) opDone(read bool, d time.Duration, err error) {
	m.epochs.Inc()
	switch {
	case err == nil:
		if read {
			m.readSeconds.ObserveDuration(d)
		} else {
			m.writeSeconds.ObserveDuration(d)
		}
	case errors.Is(err, core.ErrNoLiveQuorum):
		m.crashes.Inc()
		m.failures.Inc()
	case errors.Is(err, ErrNoCandidate):
		m.noCandidates.Inc()
	default:
		m.failures.Inc()
	}
}
