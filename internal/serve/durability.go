package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"

	"piumagcn/internal/bench"
	"piumagcn/internal/store"
)

// This file is the durability seam of the service: translating run
// state transitions into journal records on the way down, and journal
// replay into a repopulated run table on the way up. Everything here is
// a no-op when Config.Store is nil — the in-memory service is untouched.
//
// The journaling discipline: lifecycle records (accepted, started,
// terminal) are appended while holding Server.mu, so the journal order
// matches the state-machine order; checkpoint points are appended from
// the completing goroutine without the lock (they are ordered per run
// by construction — an experiment completes its points sequentially
// between its started and terminal records).

// RecoveryStats describes what the startup replay reconstructed, for
// the operator's one-line recovery log.
type RecoveryStats struct {
	// Enabled reports whether a Store was configured at all.
	Enabled bool
	// RestoredRuns is how many runs the journal reconstructed (before
	// cache-capacity eviction); RequeuedRuns of them were in-flight when
	// the previous process died and went back on the queue;
	// CachedReports of them were completed runs whose reports went back
	// into the result cache.
	RestoredRuns  int
	RequeuedRuns  int
	CachedReports int
	// SkippedRuns counts journal states that could not be restored
	// (unknown experiment, undecodable options or report).
	SkippedRuns int
	// Records and Malformed are the raw replay counts; QuarantinedBytes
	// and QuarantinePath describe the corrupt tail cut off the journal
	// ("" and 0 when it was clean).
	Records          int
	Malformed        int
	QuarantinedBytes int64
	QuarantinePath   string
}

// Recovery returns what the startup replay did (Enabled=false when the
// server runs without a Store).
func (s *Server) Recovery() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// JournalBytes is the journal's current size (0 without a Store).
func (s *Server) JournalBytes() int64 {
	if s.cfg.Store == nil {
		return 0
	}
	return s.cfg.Store.SizeBytes()
}

// journal appends one lifecycle record. A failed append degrades
// durability, not availability: the error is counted and the run
// proceeds (the store's sticky error also surfaces on every subsequent
// append until a compaction rewrites the poisoned tail away).
func (s *Server) journal(rec store.Record) {
	st := s.cfg.Store
	if st == nil {
		return
	}
	if err := st.Append(rec); err != nil {
		s.metrics.incJournalAppendError()
	}
}

func (s *Server) journalAccepted(r *run) {
	if s.cfg.Store == nil {
		return
	}
	opts, err := json.Marshal(r.opts)
	if err != nil {
		s.metrics.incJournalAppendError()
		return
	}
	s.journal(store.Accepted(r.id, r.exp.ID, opts))
}

// journalPoint persists one completed sweep point, called by the
// checkpoint observer on the completing goroutine (never under s.mu).
func (s *Server) journalPoint(id string, p bench.Point) {
	if s.cfg.Store == nil {
		return
	}
	raw, err := json.Marshal(p)
	if err != nil {
		s.metrics.incJournalAppendError()
		return
	}
	s.journal(store.CheckpointPoint(id, raw))
}

// restore replays the journal into the run table: completed runs
// repopulate the result cache (oldest evicted first, exactly as if they
// had completed in this process), failed/timed-out runs keep their
// terminal status with a partial report rebuilt from their checkpointed
// points, and runs that were queued or running when the previous
// process died are requeued with their checkpoints restored — the
// worker pool resumes them past every journaled point. Called by New
// before the workers start; a no-op without a Store.
func (s *Server) restore() {
	st := s.cfg.Store
	if st == nil {
		return
	}
	stats := st.ReplayStats()
	rec := RecoveryStats{
		Enabled:          true,
		Records:          stats.Records,
		Malformed:        stats.Malformed,
		QuarantinedBytes: st.Tail().Bytes,
		QuarantinePath:   st.QuarantinePath(),
	}
	quarantined := stats.Malformed
	if !st.Tail().Clean() {
		quarantined++
	}

	var requeue []*run
	type terminalRun struct {
		r   *run
		seq int
	}
	var terminals []terminalRun

	for _, rs := range st.States() {
		e, ok := s.byID[rs.Experiment]
		if !ok {
			rec.SkippedRuns++
			continue
		}
		var o bench.Options
		if err := json.Unmarshal(rs.Options, &o); err != nil || o.Validate() != nil {
			rec.SkippedRuns++
			continue
		}
		cp := bench.NewCheckpoint()
		points := make([]bench.Point, 0, len(rs.Points))
		for _, raw := range rs.Points {
			var p bench.Point
			if err := json.Unmarshal(raw, &p); err != nil || p.Label == "" {
				continue
			}
			points = append(points, p)
		}
		cp.Restore(points)

		rctx, cancel := context.WithCancel(s.baseCtx)
		r := &run{
			id:     rs.RunID,
			exp:    e,
			opts:   o,
			ctx:    rctx,
			cancel: cancel,
			cp:     cp,
			done:   make(chan struct{}),
		}
		switch {
		case !rs.Terminal:
			r.status = StatusQueued
			requeue = append(requeue, r)
		case rs.Status == string(StatusDone):
			// Decode the record only to validate it; the run keeps the
			// journaled bytes, in their stored form, and nothing else.
			var rep bench.Report
			if err := json.Unmarshal(rs.Report, &rep); err != nil || rep.ID == "" {
				cancel()
				rec.SkippedRuns++
				continue
			}
			r.status = StatusDone
			r.report = indentReport(rs.Report)
			close(r.done)
			cancel()
			rec.CachedReports++
			terminals = append(terminals, terminalRun{r, rs.TerminalSeq})
		case rs.Status == string(StatusFailed) || rs.Status == string(StatusCanceled) || rs.Status == string(StatusTimeout):
			r.status = Status(rs.Status)
			r.errMsg = rs.Error
			// A report is all strings, which always encode.
			_, r.report, _ = encodeReport(cp.PartialReport(e))
			close(r.done)
			cancel()
			terminals = append(terminals, terminalRun{r, rs.TerminalSeq})
		default:
			cancel()
			rec.SkippedRuns++
			continue
		}
		s.runs[r.id] = r
		rec.RestoredRuns++
	}

	// Rebuild the completion list in terminal order so cache eviction
	// across the restart behaves exactly as it would have in-process.
	sort.Slice(terminals, func(i, j int) bool { return terminals[i].seq < terminals[j].seq })
	for _, t := range terminals {
		s.completed = append(s.completed, t.r.id)
	}
	s.evictLocked()

	// Requeue in-flight runs in journal order. The queue is bounded;
	// overflow beyond its depth is fed in by a background goroutine as
	// workers free slots.
	rec.RequeuedRuns = len(requeue)
	overflow := requeue[:0]
	for _, r := range requeue {
		select {
		case s.queue <- r:
		default:
			overflow = append(overflow, r)
		}
	}
	if len(overflow) > 0 {
		go func(pending []*run) {
			for _, r := range pending {
				select {
				case s.queue <- r:
				case <-s.baseCtx.Done():
					return
				}
			}
		}(append([]*run(nil), overflow...))
	}

	s.recovery = rec
	s.metrics.addRecovered(rec.RestoredRuns)
	s.metrics.addQuarantined(quarantined)

	// Compact to the canonical image of what was just restored: the
	// quarantined tail and any malformed or superseded records are
	// rewritten away, and the journal restarts from a clean baseline.
	s.mu.Lock()
	recs := s.canonicalRecordsLocked()
	s.mu.Unlock()
	if err := st.Compact(recs); err != nil {
		s.metrics.incJournalAppendError()
	}
}

// canonicalRecordsLocked renders the current run table as the minimal
// record sequence that replays back to it: live runs first (accepted,
// started, their checkpointed points), then terminal runs in completion
// order so TerminalSeq — and with it cache eviction order — survives
// the rewrite. Callers hold s.mu.
func (s *Server) canonicalRecordsLocked() []store.Record {
	var recs []store.Record
	appendRun := func(r *run) {
		opts, err := json.Marshal(r.opts)
		if err != nil {
			return
		}
		recs = append(recs, store.Accepted(r.id, r.exp.ID, opts))
		if r.status != StatusQueued {
			recs = append(recs, store.Started(r.id))
		}
		// A done run's report supersedes its points; every other status
		// keeps them (they are what a resumed or partial run is made of).
		if r.status != StatusDone {
			for _, p := range r.cp.Points() {
				raw, err := json.Marshal(p)
				if err != nil {
					continue
				}
				recs = append(recs, store.CheckpointPoint(r.id, raw))
			}
		}
		switch r.status {
		case StatusDone:
			// Compacting the stored form gives back the bytes the run
			// journaled when it finished.
			var raw bytes.Buffer
			if err := json.Compact(&raw, r.report); err == nil {
				recs = append(recs, store.Completed(r.id, raw.Bytes()))
			}
		case StatusFailed, StatusTimeout:
			recs = append(recs, store.Failed(r.id, string(r.status), r.errMsg))
		case StatusCanceled:
			// Draining cancellations stay non-terminal on disk (they
			// resume next boot); explicit cancels record their status.
			if !s.draining {
				recs = append(recs, store.Failed(r.id, string(r.status), r.errMsg))
			}
		}
	}

	live := make([]*run, 0, len(s.runs))
	for _, r := range s.runs {
		if !r.status.terminal() {
			live = append(live, r)
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if !live[i].submitted.Equal(live[j].submitted) {
			return live[i].submitted.Before(live[j].submitted)
		}
		return live[i].id < live[j].id
	})
	for _, r := range live {
		appendRun(r)
	}
	for _, id := range s.completed {
		if r, ok := s.runs[id]; ok && r.status.terminal() {
			appendRun(r)
		}
	}
	return recs
}

// maybeCompact snapshot-and-truncates the journal once it outgrows
// Config.CompactBytes. Skipped while draining: compaction would journal
// terminal records for runs the drain is deliberately preserving.
func (s *Server) maybeCompact() {
	st := s.cfg.Store
	if st == nil || s.cfg.CompactBytes <= 0 || st.SizeBytes() <= s.cfg.CompactBytes {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	if err := st.Compact(s.canonicalRecordsLocked()); err != nil {
		s.metrics.incJournalAppendError()
	}
}
