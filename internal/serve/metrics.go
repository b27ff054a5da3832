package serve

import (
	"io"
	"time"

	"piumagcn/internal/obs"
)

// metrics adapts the service's counters onto the shared obs.Registry:
// run lifecycle counters, cache/dedup/rejection counters, a fixed-
// bucket run-duration histogram per experiment, and the aggregated
// simulated-machine counters harvested from completed runs' profiles.
// Families are registered in the order the /metrics endpoint has always
// rendered them, so the exposition output of the pre-registry
// implementation is preserved byte for byte (locked in by a golden
// test), with the simulation families appended after it.
type metrics struct {
	reg *obs.Registry

	submitted *obs.Counter
	started   *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	canceled  *obs.Counter
	cacheHits *obs.Counter
	dedupHits *obs.Counter
	evicted   *obs.Counter
	rejected  *obs.CounterVec

	queueDepth *obs.Gauge
	draining   *obs.Gauge
	durations  *obs.HistogramVec

	simEvents *obs.CounterVec
	simBusy   *obs.CounterVec

	// Resilience families (registered after the simulation families so
	// the pre-existing exposition prefix stays byte-identical).
	timedOut      *obs.Counter
	panics        *obs.Counter
	faultSeverity *obs.GaugeVec

	// Durability families (appended after the resilience families, same
	// byte-compatibility discipline).
	recovered      *obs.Counter
	journalBytes   *obs.Gauge
	quarantined    *obs.Counter
	journalAppends *obs.Counter

	// SLO-class families (appended last, same discipline). The class
	// label is bounded to the workload vocabulary plus "other" and "":
	// arbitrary header values never mint new series.
	classRequests *obs.CounterVec
	classLatency  *obs.HistogramVec
}

// latencyBounds are the histogram bucket upper bounds in seconds.
// Quick-option runs land in the millisecond buckets; full-fidelity
// simulator sweeps reach into the minutes.
var latencyBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 25, 100, 500}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	return &metrics{
		reg:       reg,
		submitted: reg.Counter("piumaserve_runs_submitted_total", "Runs accepted into the queue."),
		started:   reg.Counter("piumaserve_runs_started_total", "Runs picked up by a worker."),
		completed: reg.Counter("piumaserve_runs_completed_total", "Runs finished successfully."),
		failed:    reg.Counter("piumaserve_runs_failed_total", "Runs that returned an error."),
		canceled:  reg.Counter("piumaserve_runs_canceled_total", "Runs canceled or timed out."),
		cacheHits: reg.Counter("piumaserve_cache_hits_total", "Submissions answered from the result cache."),
		dedupHits: reg.Counter("piumaserve_dedup_hits_total", "Submissions collapsed onto an in-flight run."),
		evicted:   reg.Counter("piumaserve_cache_evictions_total", "Cached results evicted by capacity."),
		rejected:  reg.CounterVec("piumaserve_runs_rejected_total", "Submissions refused, by reason.", "reason"),

		queueDepth: reg.Gauge("piumaserve_queue_depth", "Accepted runs waiting for a worker."),
		draining:   reg.Gauge("piumaserve_draining", "Whether shutdown has begun."),
		durations: reg.HistogramVec("piumaserve_run_duration_seconds", "Successful run duration by experiment.",
			latencyBounds, "experiment"),

		simEvents: reg.CounterVec("piumaserve_sim_events_total", "Simulation events processed, by experiment.", "experiment"),
		simBusy:   reg.CounterVec("piumaserve_sim_busy_seconds_total", "Simulated component busy time, by component class.", "class"),

		timedOut: reg.Counter("piumaserve_runs_timed_out_total", "Runs killed by the run timeout."),
		panics:   reg.Counter("piumaserve_run_panics_total", "Experiment panics recovered by the worker pool."),
		faultSeverity: reg.GaugeVec("piumaserve_fault_severity",
			"Severity of the most recent fault-injected run, by experiment.", "experiment"),

		recovered:    reg.Counter("piumaserve_recovered_runs_total", "Runs restored from the journal at startup."),
		journalBytes: reg.Gauge("piumaserve_journal_bytes", "Current size of the run journal."),
		quarantined: reg.Counter("piumaserve_quarantined_records_total",
			"Malformed journal records skipped at startup, plus one per quarantined corrupt tail."),
		journalAppends: reg.Counter("piumaserve_journal_append_errors_total",
			"Lifecycle records that failed to reach the journal."),

		classRequests: reg.CounterVec("piumaserve_class_requests_total",
			"Run submissions by SLO class (X-SLO-Class header; bounded vocabulary).", "class"),
		classLatency: reg.HistogramVec("piumaserve_class_request_seconds",
			"Submit-request service time by SLO class.", latencyBounds, "class"),
	}
}

// observeClass records one submit request under its SLO class. The
// header value is free-form client input, so it is normalized onto the
// fixed vocabulary here: every With call below passes a string literal,
// which is how the metriclabels analyzer proves the label bounded.
func (m *metrics) observeClass(class string, seconds float64) {
	switch class {
	case "gold":
		m.classObserve("gold", seconds)
	case "silver":
		m.classObserve("silver", seconds)
	case "bronze":
		m.classObserve("bronze", seconds)
	case "batch":
		m.classObserve("batch", seconds)
	case "":
		m.classObserve("none", seconds)
	default:
		m.classObserve("other", seconds)
	}
}

func (m *metrics) classObserve(class string, seconds float64) {
	m.classRequests.With(class).Inc()
	m.classLatency.With(class).Observe(seconds)
}

func (m *metrics) incSubmitted() { m.submitted.Inc() }
func (m *metrics) incStarted()   { m.started.Inc() }
func (m *metrics) incFailed()    { m.failed.Inc() }
func (m *metrics) incCanceled()  { m.canceled.Inc() }
func (m *metrics) incCacheHit()  { m.cacheHits.Inc() }
func (m *metrics) incDedupHit()  { m.dedupHits.Inc() }
func (m *metrics) incEvicted()   { m.evicted.Inc() }
func (m *metrics) incPanicked()  { m.panics.Inc() }

// incTimedOut counts a timeout kill. The legacy canceled counter keeps
// covering timeouts too (its help text has always read "canceled or
// timed out"), so dashboards built on it see no discontinuity; the new
// counter splits the timeout share out.
func (m *metrics) incTimedOut() {
	m.canceled.Inc()
	m.timedOut.Inc()
}

func (m *metrics) setFaultSeverity(experimentID string, sev float64) {
	m.faultSeverity.With(experimentID).Set(sev)
}

func (m *metrics) incRejected(reason string) { m.rejected.With(reason).Inc() }

func (m *metrics) addRecovered(n int)     { m.recovered.Add(float64(n)) }
func (m *metrics) addQuarantined(n int)   { m.quarantined.Add(float64(n)) }
func (m *metrics) incJournalAppendError() { m.journalAppends.Inc() }

func (m *metrics) observeCompleted(experimentID string, d time.Duration) {
	m.completed.Inc()
	m.durations.With(experimentID).Observe(d.Seconds())
}

// recordProfile folds a completed run's simulation profile into the
// aggregate sim counters.
func (m *metrics) recordProfile(experimentID string, p *obs.Profile) {
	if p == nil {
		return
	}
	for _, run := range p.Runs {
		m.simEvents.With(experimentID).Add(float64(run.Events))
		for _, c := range run.Classes {
			m.simBusy.With(c.Class).Add(c.BusySeconds)
		}
	}
}

// render writes the Prometheus text exposition of every metric plus
// the live gauges supplied by the server.
func (m *metrics) render(w io.Writer, queueDepth int, draining bool, journalBytes int64) {
	m.queueDepth.Set(float64(queueDepth))
	d := 0.0
	if draining {
		d = 1
	}
	m.draining.Set(d)
	m.journalBytes.Set(float64(journalBytes))
	m.reg.Render(w)
}
