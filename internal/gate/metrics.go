package gate

import (
	"io"

	"piumagcn/internal/obs"
)

// latencyBounds matches the serving tier's histogram buckets so
// gate-observed and backend-observed latencies compare directly.
var latencyBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 25, 100, 500}

// metrics is the gate's obs.Registry adapter. Every labeled family is
// bounded: "class" by the normalized SLO vocabulary and "backend" by
// the replica registry's fixed name set (gate.Replica.Name —
// sanctioned in the metriclabels analyzer). All label values reach
// With through unexported helpers whose call sites pass constants or
// Replica.Name, which is how piumalint proves the bound.
type metrics struct {
	reg *obs.Registry

	requests     *obs.CounterVec // by class
	rejected     *obs.CounterVec // by admission scope
	routed       *obs.CounterVec // by backend
	failovers    *obs.Counter
	noBackend    *obs.Counter
	proxyErrors  *obs.Counter
	requestSecs  *obs.HistogramVec // by class
	backendState *obs.GaugeVec     // healthy, by backend
	backendBusy  *obs.GaugeVec     // in-flight, by backend
	probeFails   *obs.CounterVec   // by backend
	recoveries   *obs.CounterVec   // by backend

	// Circuit breakers and deadline budgets (the chaos-layer
	// resilience machinery).
	breakerState     *obs.GaugeVec   // 0 closed, 1 half-open, 2 open; by backend
	breakerMoves     *obs.CounterVec // transitions, by backend and destination state
	breakerRejected  *obs.Counter    // submissions refused: every candidate's circuit open
	serverErrRetries *obs.Counter    // submissions resubmitted after a backend 5xx
	deadlineExceeded *obs.Counter    // requests refused/stopped with the budget spent

	// Durable intake and anti-entropy reconciliation (the
	// cluster-durability machinery).
	ledgerOpen     *obs.Gauge      // non-terminal runs in the intake ledger
	ledgerErrors   *obs.Counter    // intake-ledger append failures
	reconSweeps    *obs.Counter    // anti-entropy sweeps run
	reconFetchErrs *obs.Counter    // replica run listings that failed mid-sweep
	reconDecisions *obs.CounterVec // reconcile decisions, by action
	rehomed        *obs.CounterVec // runs re-homed, by destination backend
	rehomeFails    *obs.Counter    // re-home resubmissions that failed

	// Scraped per-backend aggregates (pull-through from each replica's
	// /metrics at exposition time; see scrape.go).
	backendUp        *obs.GaugeVec
	backendQueue     *obs.GaugeVec
	backendSubmitted *obs.GaugeVec
	backendCompleted *obs.GaugeVec
	backendCacheHits *obs.GaugeVec
	backendDedupHits *obs.GaugeVec
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	return &metrics{
		reg: reg,
		requests: reg.CounterVec("piumagate_requests_total",
			"Run submissions received, by SLO class (bounded vocabulary).", "class"),
		rejected: reg.CounterVec("piumagate_admission_rejected_total",
			"Submissions rejected by admission control, by scope (global rate or class quota).", "scope"),
		routed: reg.CounterVec("piumagate_routed_total",
			"Submissions forwarded to a backend, by backend.", "backend"),
		failovers: reg.Counter("piumagate_failovers_total",
			"Submissions resubmitted to another replica after a backend died mid-flight."),
		noBackend: reg.Counter("piumagate_no_backend_total",
			"Requests refused because no healthy backend existed."),
		proxyErrors: reg.Counter("piumagate_proxy_errors_total",
			"Responses truncated after headers were already sent (failover impossible)."),
		requestSecs: reg.HistogramVec("piumagate_request_seconds",
			"Gate-observed submit service time, by SLO class.", latencyBounds, "class"),
		backendState: reg.GaugeVec("piumagate_backend_healthy",
			"Replica health as seen by the prober (1 healthy, 0 down).", "backend"),
		backendBusy: reg.GaugeVec("piumagate_backend_in_flight",
			"Gate requests currently forwarded to the backend.", "backend"),
		probeFails: reg.CounterVec("piumagate_backend_probe_failures_total",
			"Failed health probes plus passive mark-downs, by backend.", "backend"),
		recoveries: reg.CounterVec("piumagate_backend_recoveries_total",
			"Down-to-healthy transitions (a passing probe or an answered submission), by backend.", "backend"),

		breakerState: reg.GaugeVec("piumagate_breaker_state",
			"Circuit state per backend (0 closed, 1 half-open, 2 open).", "backend"),
		breakerMoves: reg.CounterVec("piumagate_breaker_transitions_total",
			"Circuit transitions, by backend and destination state.", "backend", "state"),
		breakerRejected: reg.Counter("piumagate_breaker_rejected_total",
			"Submissions refused because every healthy backend's circuit was open."),
		serverErrRetries: reg.Counter("piumagate_server_error_retries_total",
			"Submissions resubmitted to another replica after a backend 5xx."),
		deadlineExceeded: reg.Counter("piumagate_deadline_exhausted_total",
			"Requests refused or abandoned because the propagated deadline budget was spent."),

		ledgerOpen: reg.Gauge("piumagate_intake_open_runs",
			"Non-terminal runs in the durable intake ledger (accepted but not yet observed terminal)."),
		ledgerErrors: reg.Counter("piumagate_intake_ledger_errors_total",
			"Intake-ledger append failures."),
		reconSweeps: reg.Counter("piumagate_reconcile_sweeps_total",
			"Anti-entropy reconciliation sweeps run."),
		reconFetchErrs: reg.Counter("piumagate_reconcile_fetch_errors_total",
			"Replica run listings that failed during a reconciliation sweep."),
		reconDecisions: reg.CounterVec("piumagate_reconcile_decisions_total",
			"Reconciliation decisions, by action (keep, terminal, rehome).", "action"),
		rehomed: reg.CounterVec("piumagate_rehomed_runs_total",
			"Orphaned runs resubmitted to a replica, by destination backend.", "backend"),
		rehomeFails: reg.Counter("piumagate_rehome_failures_total",
			"Re-home resubmissions that failed (retried next sweep)."),

		backendUp: reg.GaugeVec("piumagate_backend_up",
			"Whether the last /metrics scrape of the backend succeeded.", "backend"),
		backendQueue: reg.GaugeVec("piumagate_backend_queue_depth",
			"Scraped piumaserve_queue_depth, by backend.", "backend"),
		backendSubmitted: reg.GaugeVec("piumagate_backend_runs_submitted",
			"Scraped piumaserve_runs_submitted_total, by backend.", "backend"),
		backendCompleted: reg.GaugeVec("piumagate_backend_runs_completed",
			"Scraped piumaserve_runs_completed_total, by backend.", "backend"),
		backendCacheHits: reg.GaugeVec("piumagate_backend_cache_hits",
			"Scraped piumaserve_cache_hits_total, by backend.", "backend"),
		backendDedupHits: reg.GaugeVec("piumagate_backend_dedup_hits",
			"Scraped piumaserve_dedup_hits_total, by backend.", "backend"),
	}
}

// observeClass counts one submission and its service time under the
// normalized class. The switch arms pass constants so the label is
// provably bounded.
func (m *metrics) observeClass(class string, seconds float64) {
	switch class {
	case classGold:
		m.classObserve(classGold, seconds)
	case classSilver:
		m.classObserve(classSilver, seconds)
	case classBronze:
		m.classObserve(classBronze, seconds)
	case classBatch:
		m.classObserve(classBatch, seconds)
	case classNone:
		m.classObserve(classNone, seconds)
	default:
		m.classObserve(classOther, seconds)
	}
}

func (m *metrics) classObserve(class string, seconds float64) {
	m.requests.With(class).Inc()
	m.requestSecs.With(class).Observe(seconds)
}

// incRejected counts an admission rejection by scope ("global" or the
// rejecting class quota).
func (m *metrics) incRejected(scope string) {
	switch scope {
	case "global":
		m.rejectedInc("global")
	case classGold:
		m.rejectedInc(classGold)
	case classSilver:
		m.rejectedInc(classSilver)
	case classBronze:
		m.rejectedInc(classBronze)
	case classBatch:
		m.rejectedInc(classBatch)
	default:
		m.rejectedInc(classOther)
	}
}

func (m *metrics) rejectedInc(scope string) { m.rejected.With(scope).Inc() }

// incRouted counts one forward by its backend (the registry's fixed
// name set).
func (m *metrics) incRouted(backend string) { m.routed.With(backend).Inc() }

func (m *metrics) incFailover()   { m.failovers.Inc() }
func (m *metrics) incNoBackend()  { m.noBackend.Inc() }
func (m *metrics) incProxyError() { m.proxyErrors.Inc() }

func (m *metrics) incBreakerRejected()  { m.breakerRejected.Inc() }
func (m *metrics) incServerErrRetry()   { m.serverErrRetries.Inc() }
func (m *metrics) incDeadlineExceeded() { m.deadlineExceeded.Inc() }

// breakerStateValue maps a circuit state onto its gauge encoding.
func breakerStateValue(state string) float64 {
	switch state {
	case BreakerHalfOpen:
		return 1
	case BreakerOpen:
		return 2
	default:
		return 0
	}
}

func (m *metrics) setBreakerState(backend string, v float64) { m.breakerState.With(backend).Set(v) }

// observeBreakerTransition counts one circuit move and refreshes the
// state gauge. Both label values come from BreakerTransition's closed
// vocabularies (gate.BreakerTransition.Backend — the registry's fixed
// name set — and gate.BreakerTransition.To — the three breaker state
// constants), sanctioned in the metriclabels analyzer.
func (m *metrics) observeBreakerTransition(t BreakerTransition) {
	m.breakerMoves.With(t.Backend, t.To).Inc()
	m.setBreakerState(t.Backend, breakerStateValue(t.To))
}

func (m *metrics) setBackendHealthy(backend string, v float64) { m.backendState.With(backend).Set(v) }
func (m *metrics) setBackendInFlight(backend string, v float64) {
	m.backendBusy.With(backend).Set(v)
}
func (m *metrics) incProbeFailure(backend string) { m.probeFails.With(backend).Inc() }
func (m *metrics) incRecovered(backend string)    { m.recoveries.With(backend).Inc() }

func (m *metrics) setLedgerOpen(v float64) { m.ledgerOpen.Set(v) }
func (m *metrics) incLedgerError()         { m.ledgerErrors.Inc() }

func (m *metrics) incReconcileSweep()      { m.reconSweeps.Inc() }
func (m *metrics) incReconcileFetchError() { m.reconFetchErrs.Inc() }
func (m *metrics) incRehomeFailure()       { m.rehomeFails.Inc() }

// observeReconcile counts one reconciliation decision. The action
// label is gate.ReconcileDecision.Action — a closed four-value
// vocabulary sanctioned in the metriclabels analyzer.
func (m *metrics) observeReconcile(d ReconcileDecision) { m.reconDecisions.With(d.Action).Inc() }

// incRehomed counts a successful re-home resubmission by its
// destination backend (the registry's fixed name set).
func (m *metrics) incRehomed(backend string) { m.rehomed.With(backend).Inc() }

func (m *metrics) setBackendUp(backend string, v float64)    { m.backendUp.With(backend).Set(v) }
func (m *metrics) setBackendQueue(backend string, v float64) { m.backendQueue.With(backend).Set(v) }
func (m *metrics) setBackendSubmitted(backend string, v float64) {
	m.backendSubmitted.With(backend).Set(v)
}
func (m *metrics) setBackendCompleted(backend string, v float64) {
	m.backendCompleted.With(backend).Set(v)
}
func (m *metrics) setBackendCacheHits(backend string, v float64) {
	m.backendCacheHits.With(backend).Set(v)
}
func (m *metrics) setBackendDedupHits(backend string, v float64) {
	m.backendDedupHits.With(backend).Set(v)
}

// render refreshes the live per-replica gauges from the registry and
// writes the Prometheus exposition.
func (m *metrics) render(w io.Writer, reg *Registry) {
	for _, r := range reg.All() {
		if r.Healthy() {
			m.setBackendHealthy(r.Name, 1)
		} else {
			m.setBackendHealthy(r.Name, 0)
		}
		m.setBackendInFlight(r.Name, float64(r.InFlight()))
	}
	m.reg.Render(w)
}
