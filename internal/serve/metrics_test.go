package serve

import (
	"strings"
	"testing"
	"time"

	"piumagcn/internal/obs"
	"piumagcn/internal/sim"
)

// TestMetricsExpositionByteCompatible pins the /metrics output against
// what the pre-registry, hand-rolled implementation rendered: the
// original families must appear byte for byte, in the original order,
// with the new simulation families appended strictly after them.
// Durations are chosen binary-exact (0.25s, 0.5s, 2s) so the histogram
// sums format identically under %g and strconv.
func TestMetricsExpositionByteCompatible(t *testing.T) {
	m := newMetrics()
	m.incSubmitted()
	m.incSubmitted()
	m.incSubmitted()
	m.incStarted()
	m.incStarted()
	m.observeCompleted("fig5", 2*time.Second)
	m.observeCompleted("fig2", 250*time.Millisecond)
	m.observeCompleted("fig2", 500*time.Millisecond)
	m.incFailed()
	m.incCanceled()
	m.incCacheHit()
	m.incCacheHit()
	m.incDedupHit()
	m.incEvicted()
	m.incRejected("queue_full")
	m.incRejected("queue_full")
	m.incRejected("draining")
	m.incTimedOut() // bumps the legacy canceled counter too
	m.incPanicked()
	m.setFaultSeverity("ext-degraded", 0.5)
	m.addRecovered(3)
	m.addQuarantined(2)
	m.incJournalAppendError()
	m.observeClass("gold", 0.25)
	m.observeClass("gold", 2)
	m.observeClass("not-a-class", 0.5) // hostile header → bounded "other"

	var b strings.Builder
	m.render(&b, 4, true, 4096)
	got := b.String()

	legacy := `# HELP piumaserve_runs_submitted_total Runs accepted into the queue.
# TYPE piumaserve_runs_submitted_total counter
piumaserve_runs_submitted_total 3
# HELP piumaserve_runs_started_total Runs picked up by a worker.
# TYPE piumaserve_runs_started_total counter
piumaserve_runs_started_total 2
# HELP piumaserve_runs_completed_total Runs finished successfully.
# TYPE piumaserve_runs_completed_total counter
piumaserve_runs_completed_total 3
# HELP piumaserve_runs_failed_total Runs that returned an error.
# TYPE piumaserve_runs_failed_total counter
piumaserve_runs_failed_total 1
# HELP piumaserve_runs_canceled_total Runs canceled or timed out.
# TYPE piumaserve_runs_canceled_total counter
piumaserve_runs_canceled_total 2
# HELP piumaserve_cache_hits_total Submissions answered from the result cache.
# TYPE piumaserve_cache_hits_total counter
piumaserve_cache_hits_total 2
# HELP piumaserve_dedup_hits_total Submissions collapsed onto an in-flight run.
# TYPE piumaserve_dedup_hits_total counter
piumaserve_dedup_hits_total 1
# HELP piumaserve_cache_evictions_total Cached results evicted by capacity.
# TYPE piumaserve_cache_evictions_total counter
piumaserve_cache_evictions_total 1
# HELP piumaserve_runs_rejected_total Submissions refused, by reason.
# TYPE piumaserve_runs_rejected_total counter
piumaserve_runs_rejected_total{reason="draining"} 1
piumaserve_runs_rejected_total{reason="queue_full"} 2
# HELP piumaserve_queue_depth Accepted runs waiting for a worker.
# TYPE piumaserve_queue_depth gauge
piumaserve_queue_depth 4
# HELP piumaserve_draining Whether shutdown has begun.
# TYPE piumaserve_draining gauge
piumaserve_draining 1
# HELP piumaserve_run_duration_seconds Successful run duration by experiment.
# TYPE piumaserve_run_duration_seconds histogram
piumaserve_run_duration_seconds_bucket{experiment="fig2",le="0.001"} 0
piumaserve_run_duration_seconds_bucket{experiment="fig2",le="0.005"} 0
piumaserve_run_duration_seconds_bucket{experiment="fig2",le="0.025"} 0
piumaserve_run_duration_seconds_bucket{experiment="fig2",le="0.1"} 0
piumaserve_run_duration_seconds_bucket{experiment="fig2",le="0.5"} 2
piumaserve_run_duration_seconds_bucket{experiment="fig2",le="1"} 2
piumaserve_run_duration_seconds_bucket{experiment="fig2",le="5"} 2
piumaserve_run_duration_seconds_bucket{experiment="fig2",le="25"} 2
piumaserve_run_duration_seconds_bucket{experiment="fig2",le="100"} 2
piumaserve_run_duration_seconds_bucket{experiment="fig2",le="500"} 2
piumaserve_run_duration_seconds_bucket{experiment="fig2",le="+Inf"} 2
piumaserve_run_duration_seconds_sum{experiment="fig2"} 0.75
piumaserve_run_duration_seconds_count{experiment="fig2"} 2
piumaserve_run_duration_seconds_bucket{experiment="fig5",le="0.001"} 0
piumaserve_run_duration_seconds_bucket{experiment="fig5",le="0.005"} 0
piumaserve_run_duration_seconds_bucket{experiment="fig5",le="0.025"} 0
piumaserve_run_duration_seconds_bucket{experiment="fig5",le="0.1"} 0
piumaserve_run_duration_seconds_bucket{experiment="fig5",le="0.5"} 0
piumaserve_run_duration_seconds_bucket{experiment="fig5",le="1"} 0
piumaserve_run_duration_seconds_bucket{experiment="fig5",le="5"} 1
piumaserve_run_duration_seconds_bucket{experiment="fig5",le="25"} 1
piumaserve_run_duration_seconds_bucket{experiment="fig5",le="100"} 1
piumaserve_run_duration_seconds_bucket{experiment="fig5",le="500"} 1
piumaserve_run_duration_seconds_bucket{experiment="fig5",le="+Inf"} 1
piumaserve_run_duration_seconds_sum{experiment="fig5"} 2
piumaserve_run_duration_seconds_count{experiment="fig5"} 1
`
	simFamilies := `# HELP piumaserve_sim_events_total Simulation events processed, by experiment.
# TYPE piumaserve_sim_events_total counter
# HELP piumaserve_sim_busy_seconds_total Simulated component busy time, by component class.
# TYPE piumaserve_sim_busy_seconds_total counter
`
	resilienceFamilies := `# HELP piumaserve_runs_timed_out_total Runs killed by the run timeout.
# TYPE piumaserve_runs_timed_out_total counter
piumaserve_runs_timed_out_total 1
# HELP piumaserve_run_panics_total Experiment panics recovered by the worker pool.
# TYPE piumaserve_run_panics_total counter
piumaserve_run_panics_total 1
# HELP piumaserve_fault_severity Severity of the most recent fault-injected run, by experiment.
# TYPE piumaserve_fault_severity gauge
piumaserve_fault_severity{experiment="ext-degraded"} 0.5
`
	durabilityFamilies := `# HELP piumaserve_recovered_runs_total Runs restored from the journal at startup.
# TYPE piumaserve_recovered_runs_total counter
piumaserve_recovered_runs_total 3
# HELP piumaserve_journal_bytes Current size of the run journal.
# TYPE piumaserve_journal_bytes gauge
piumaserve_journal_bytes 4096
# HELP piumaserve_quarantined_records_total Malformed journal records skipped at startup, plus one per quarantined corrupt tail.
# TYPE piumaserve_quarantined_records_total counter
piumaserve_quarantined_records_total 2
# HELP piumaserve_journal_append_errors_total Lifecycle records that failed to reach the journal.
# TYPE piumaserve_journal_append_errors_total counter
piumaserve_journal_append_errors_total 1
`
	classFamilies := `# HELP piumaserve_class_requests_total Run submissions by SLO class (X-SLO-Class header; bounded vocabulary).
# TYPE piumaserve_class_requests_total counter
piumaserve_class_requests_total{class="gold"} 2
piumaserve_class_requests_total{class="other"} 1
# HELP piumaserve_class_request_seconds Submit-request service time by SLO class.
# TYPE piumaserve_class_request_seconds histogram
piumaserve_class_request_seconds_bucket{class="gold",le="0.001"} 0
piumaserve_class_request_seconds_bucket{class="gold",le="0.005"} 0
piumaserve_class_request_seconds_bucket{class="gold",le="0.025"} 0
piumaserve_class_request_seconds_bucket{class="gold",le="0.1"} 0
piumaserve_class_request_seconds_bucket{class="gold",le="0.5"} 1
piumaserve_class_request_seconds_bucket{class="gold",le="1"} 1
piumaserve_class_request_seconds_bucket{class="gold",le="5"} 2
piumaserve_class_request_seconds_bucket{class="gold",le="25"} 2
piumaserve_class_request_seconds_bucket{class="gold",le="100"} 2
piumaserve_class_request_seconds_bucket{class="gold",le="500"} 2
piumaserve_class_request_seconds_bucket{class="gold",le="+Inf"} 2
piumaserve_class_request_seconds_sum{class="gold"} 2.25
piumaserve_class_request_seconds_count{class="gold"} 2
piumaserve_class_request_seconds_bucket{class="other",le="0.001"} 0
piumaserve_class_request_seconds_bucket{class="other",le="0.005"} 0
piumaserve_class_request_seconds_bucket{class="other",le="0.025"} 0
piumaserve_class_request_seconds_bucket{class="other",le="0.1"} 0
piumaserve_class_request_seconds_bucket{class="other",le="0.5"} 1
piumaserve_class_request_seconds_bucket{class="other",le="1"} 1
piumaserve_class_request_seconds_bucket{class="other",le="5"} 1
piumaserve_class_request_seconds_bucket{class="other",le="25"} 1
piumaserve_class_request_seconds_bucket{class="other",le="100"} 1
piumaserve_class_request_seconds_bucket{class="other",le="500"} 1
piumaserve_class_request_seconds_bucket{class="other",le="+Inf"} 1
piumaserve_class_request_seconds_sum{class="other"} 0.5
piumaserve_class_request_seconds_count{class="other"} 1
`
	if want := legacy + simFamilies + resilienceFamilies + durabilityFamilies + classFamilies; got != want {
		t.Fatalf("exposition drifted from the legacy format.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRecordProfileAggregatesSimMetrics checks the sim families pick up
// per-run event counts and per-class busy seconds.
func TestRecordProfileAggregatesSimMetrics(t *testing.T) {
	m := newMetrics()
	p := obs.NewProfiler(obs.ProfilerOptions{MaxSpans: -1})
	rt := p.StartRun("fig5 dma c=4 K=8")
	rt.Reserve("slice0", 0, 250*sim.Nanosecond)
	rt.Reserve("mtp0", 0, 50*sim.Nanosecond)
	rt.Event(10)
	rt.Event(20)
	m.recordProfile("fig5", p.Profile())
	m.recordProfile("fig5", nil) // nil profile must be a no-op

	var b strings.Builder
	m.render(&b, 0, false, 0)
	out := b.String()
	for _, want := range []string{
		`piumaserve_sim_events_total{experiment="fig5"} 2`,
		`piumaserve_sim_busy_seconds_total{class="core"} 5e-08`,
		`piumaserve_sim_busy_seconds_total{class="dram-slice"} 2.5e-07`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing %q in exposition:\n%s", want, out)
		}
	}
}
