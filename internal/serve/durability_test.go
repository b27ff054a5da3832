package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"piumagcn/internal/bench"
	"piumagcn/internal/serve"
	"piumagcn/internal/store"
)

// openStore opens a Store over dir with an always-sync policy (tests
// want every record on disk the moment it is appended).
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// shutdownAndClose drains the server and closes its store, in that
// order (the drain syncs the journal through the still-open store).
func shutdownAndClose(t *testing.T, s *serve.Server, st *store.Store) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("closing store: %v", err)
	}
}

// TestRestartRecoversResultCache: a completed run's report survives a
// shutdown/reopen cycle — same run ID, a GET answering with the same
// report bytes as before the restart, and a resubmission after the
// restart is a cache hit, not a re-simulation.
func TestRestartRecoversResultCache(t *testing.T) {
	dir := t.TempDir()
	exp := sweepExperiment("sweep", 2, nil, false)

	st1 := openStore(t, dir)
	s1 := serve.New(serve.Config{Experiments: []bench.Experiment{exp}, Store: st1})
	v, _, err := s1.Submit("sweep", bench.QuickOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	v = waitStatus(t, s1, v.ID, serve.StatusDone)
	wantReport := reportMember(t, doJSON(t, s1.Handler(), "GET", "/v1/runs/"+v.ID, ""))
	shutdownAndClose(t, s1, st1)

	st2 := openStore(t, dir)
	s2 := newTestServer(t, serve.Config{Experiments: []bench.Experiment{exp}, Store: st2})
	t.Cleanup(func() { st2.Close() })

	got, ok := s2.Get(v.ID)
	if !ok {
		t.Fatalf("run %s not restored after restart", v.ID)
	}
	if got.Status != serve.StatusDone || got.ReportJSON == nil {
		t.Fatalf("restored run = %q (report %v), want done with report", got.Status, got.ReportJSON != nil)
	}
	gotReport := reportMember(t, doJSON(t, s2.Handler(), "GET", "/v1/runs/"+v.ID, ""))
	if len(wantReport) == 0 || !bytes.Equal(gotReport, wantReport) {
		t.Fatalf("restored report drifted:\n--- before ---\n%s\n--- after ---\n%s", wantReport, gotReport)
	}
	if rec := s2.Recovery(); !rec.Enabled || rec.RestoredRuns != 1 || rec.CachedReports != 1 {
		t.Fatalf("recovery stats = %+v", rec)
	}
	v2, existing, err := s2.Submit("sweep", bench.QuickOptions(), false)
	if err != nil || !existing || v2.ID != v.ID {
		t.Fatalf("resubmission after restart: existing=%v id=%s err=%v", existing, v2.ID, err)
	}
	w := doJSON(t, s2.Handler(), "GET", "/metrics", "")
	for _, want := range []string{
		"piumaserve_recovered_runs_total 1",
		"piumaserve_cache_hits_total 1",
	} {
		if !strings.Contains(w.Body.String(), want+"\n") {
			t.Fatalf("missing %q in exposition:\n%s", want, w.Body.String())
		}
	}
}

// TestDrainPreservesInFlightRunsForResume: shutting down mid-sweep must
// NOT journal the run as terminal — the next boot requeues it and the
// sweep resumes past every point the first boot completed.
func TestDrainPreservesInFlightRunsForResume(t *testing.T) {
	dir := t.TempDir()
	const points = 3
	block := make(chan struct{}) // never closed: boot 1 stalls after point 0

	st1 := openStore(t, dir)
	s1 := serve.New(serve.Config{
		Experiments: []bench.Experiment{sweepExperiment("sweep", points, block, false)},
		Store:       st1,
	})
	v, _, err := s1.Submit("sweep", bench.QuickOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first point to land in the journal.
	deadline := time.Now().Add(15 * time.Second)
	for {
		got, _ := s1.Get(v.ID)
		if got.CheckpointPoints >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never completed a sweep point (status %q)", got.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	shutdownAndClose(t, s1, st1)
	if sum := s1.DrainSummary(); sum.PreservedRuns != 1 {
		t.Fatalf("drain summary = %+v, want 1 preserved run", sum)
	}

	// Boot 2: the sweep no longer blocks; the recovered run must finish
	// on its own (no resubmission) and reuse the journaled point.
	released := make(chan struct{})
	close(released)
	st2 := openStore(t, dir)
	s2 := newTestServer(t, serve.Config{
		Experiments: []bench.Experiment{sweepExperiment("sweep", points, released, false)},
		Store:       st2,
	})
	t.Cleanup(func() { st2.Close() })

	if rec := s2.Recovery(); rec.RequeuedRuns != 1 || rec.RestoredRuns != 1 {
		t.Fatalf("recovery stats = %+v, want 1 requeued run", rec)
	}
	got := waitStatus(t, s2, v.ID, serve.StatusDone)
	if got.ReusedPoints < 1 {
		t.Fatalf("resumed run reused %d points, want >= 1", got.ReusedPoints)
	}
	if got.CheckpointPoints != points {
		t.Fatalf("resumed run completed %d points, want %d", got.CheckpointPoints, points)
	}
}

// TestRestartRestoresFailedRunWithPartialReport: a permanently failed
// run comes back with its terminal status, error message, and a partial
// report rebuilt from the points it had checkpointed.
func TestRestartRestoresFailedRunWithPartialReport(t *testing.T) {
	dir := t.TempDir()
	exp := sweepExperiment("flaky", 3, nil, true) // fails after point 0

	st1 := openStore(t, dir)
	s1 := serve.New(serve.Config{Experiments: []bench.Experiment{exp}, Store: st1})
	v, _, err := s1.Submit("flaky", bench.QuickOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	v = waitStatus(t, s1, v.ID, serve.StatusFailed)
	shutdownAndClose(t, s1, st1)

	st2 := openStore(t, dir)
	s2 := newTestServer(t, serve.Config{Experiments: []bench.Experiment{exp}, Store: st2})
	t.Cleanup(func() { st2.Close() })

	got, ok := s2.Get(v.ID)
	if !ok || got.Status != serve.StatusFailed {
		t.Fatalf("restored run = %+v, want failed", got)
	}
	if !strings.Contains(got.Err, "flaky backend") {
		t.Fatalf("restored error = %q", got.Err)
	}
	if out := reportText(t, got); !strings.Contains(out, "Completed sweep points (1)") {
		t.Fatalf("restored partial report = %q", out)
	}
}

// TestCorruptJournalTailQuarantinesAtBoot: garbage appended to the
// journal must not block startup — the valid prefix replays, the tail
// is quarantined, and the service keeps accepting runs.
func TestCorruptJournalTailQuarantinesAtBoot(t *testing.T) {
	dir := t.TempDir()
	exp := sweepExperiment("sweep", 2, nil, false)

	st1 := openStore(t, dir)
	s1 := serve.New(serve.Config{Experiments: []bench.Experiment{exp}, Store: st1})
	v, _, err := s1.Submit("sweep", bench.QuickOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s1, v.ID, serve.StatusDone)
	shutdownAndClose(t, s1, st1)

	// Tear the journal: a torn frame header at the tail.
	wal := filepath.Join(dir, "runs.wal")
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2 := openStore(t, dir)
	s2 := newTestServer(t, serve.Config{Experiments: []bench.Experiment{exp}, Store: st2})
	t.Cleanup(func() { st2.Close() })

	rec := s2.Recovery()
	if rec.QuarantinedBytes != 3 || rec.QuarantinePath == "" {
		t.Fatalf("recovery stats = %+v, want 3 quarantined bytes", rec)
	}
	if got, ok := s2.Get(v.ID); !ok || got.Status != serve.StatusDone {
		t.Fatalf("valid prefix not replayed: %+v ok=%v", got, ok)
	}
	w := doJSON(t, s2.Handler(), "GET", "/metrics", "")
	if !strings.Contains(w.Body.String(), "piumaserve_quarantined_records_total 1\n") {
		t.Fatalf("quarantine metric missing:\n%s", w.Body.String())
	}
}

// TestSubmitBodyTooLarge: POST /v1/runs is bounded; an oversized body
// gets the standard error JSON with status 413.
func TestSubmitBodyTooLarge(t *testing.T) {
	s := newTestServer(t, serve.Config{})
	body := `{"experiment":"` + strings.Repeat("a", 1<<20) + `"}`
	w := doJSON(t, s.Handler(), "POST", "/v1/runs", body)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413\nbody: %s", w.Code, w.Body.String())
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "exceeds") {
		t.Fatalf("error body = %q (%v)", w.Body.String(), err)
	}
}

// TestNoStoreKeepsInMemoryBehavior: without a Store the service is the
// pre-durability one — no recovery, no journal, zero journal gauge.
func TestNoStoreKeepsInMemoryBehavior(t *testing.T) {
	s := newTestServer(t, serve.Config{Experiments: []bench.Experiment{sweepExperiment("sweep", 2, nil, false)}})
	if rec := s.Recovery(); rec.Enabled {
		t.Fatalf("recovery enabled without a store: %+v", rec)
	}
	if s.JournalBytes() != 0 {
		t.Fatalf("journal bytes = %d without a store", s.JournalBytes())
	}
	v, _, err := s.Submit("sweep", bench.QuickOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, v.ID, serve.StatusDone)
	w := doJSON(t, s.Handler(), "GET", "/metrics", "")
	if !strings.Contains(w.Body.String(), "piumaserve_journal_bytes 0\n") {
		t.Fatalf("journal gauge missing:\n%s", w.Body.String())
	}
}
