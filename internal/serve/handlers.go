package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"piumagcn/internal/bench"
	"piumagcn/internal/obs"
)

// maxSubmitBytes bounds the POST /v1/runs body. A legitimate submit
// request is a couple hundred bytes; anything near the cap is abuse,
// rejected with 413 before the decoder buffers it.
const maxSubmitBytes = 1 << 20

// Handler returns the service's HTTP API:
//
//	GET    /v1/experiments   the served experiment registry
//	POST   /v1/runs          submit a run; ?wait=true blocks until done
//	GET    /v1/runs          list known runs, newest first
//	GET    /v1/runs/{id}     poll one run; ?wait=true blocks until done
//	GET    /v1/runs/{id}/profile  per-component simulation profile (409 until done)
//	DELETE /v1/runs/{id}     cancel a queued or running run
//	GET    /healthz          liveness (503 while draining)
//	GET    /metrics          Prometheus text exposition
//
// When Config.Replica is set, every response carries the replica's
// name in the X-Piuma-Replica header, so clients behind a fan-out
// front door (cmd/piumagate) can tell which backend answered.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleListRuns)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGetRun)
	mux.HandleFunc("GET /v1/runs/{id}/profile", s.handleRunProfile)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancelRun)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.Replica == "" {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(ReplicaHeader, s.cfg.Replica)
		mux.ServeHTTP(w, r)
	})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	out := make([]ExperimentResource, 0, len(s.cfg.Experiments))
	for _, e := range s.cfg.Experiments {
		out = append(out, ExperimentResource{ID: e.ID, Title: e.Title, Description: e.Description})
	}
	writeJSON(w, http.StatusOK, out)
}

// submitRequest is the POST /v1/runs body. Omitted option fields keep
// their bench.DefaultOptions values.
type submitRequest struct {
	Experiment string         `json:"experiment"`
	Options    *bench.Options `json:"options"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Per-SLO-class accounting: the header value is normalized onto a
	// bounded vocabulary inside observeClass, so hostile clients cannot
	// mint metric series.
	start := time.Now()
	defer func() {
		s.metrics.observeClass(r.Header.Get(SLOClassHeader), time.Since(start).Seconds())
	}()
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBytes)
	defaults := bench.DefaultOptions()
	req := submitRequest{Options: &defaults}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "malformed request body: "+err.Error())
		return
	}
	if req.Options == nil {
		// "options": null overwrites the pre-seeded defaults.
		req.Options = &defaults
	}
	if req.Experiment == "" {
		writeError(w, http.StatusBadRequest, `missing "experiment" field`)
		return
	}
	wait := r.URL.Query().Get("wait") == "true"
	budget := deadlineBudget(r)

	v, existing, err := s.SubmitWithBudget(req.Experiment, *req.Options, wait, budget)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	if wait && !v.Status.terminal() {
		// Block on the run; if this client disconnects and nobody else
		// wants the run, Wait cancels it. A propagated deadline budget
		// bounds the wait too (with a little grace so the run's own
		// budget-derived timeout fires first and the response carries
		// the terminal "timeout" snapshot, not a racing one).
		v, err = s.waitBudgeted(r, v.ID, budget)
		if err != nil {
			// Client gone: nothing useful to write.
			return
		}
	}
	status := http.StatusAccepted
	if existing || v.Status.terminal() {
		status = http.StatusOK
	}
	s.writeRun(w, status, v, existing)
}

func writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownExperiment):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, ErrInvalidOptions):
		writeError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	filter := Status(r.URL.Query().Get("status"))
	if filter != "" && !validStatus(filter) {
		writeError(w, http.StatusBadRequest,
			"unknown status "+string(filter)+" (valid: queued, running, done, failed, canceled, timeout)")
		return
	}
	views := s.Runs()
	out := make([]RunResource, 0, len(views))
	for _, v := range views {
		if filter != "" && v.Status != filter {
			continue
		}
		// The listing stays light: heads only, reports are fetched per run.
		out = append(out, resourceFromView(v, false, s.clock))
	}
	writeJSON(w, http.StatusOK, out)
}

// validStatus reports whether s is one of the run-status vocabulary
// values (the ?status= listing filter rejects anything else, so typos
// fail loudly instead of returning a silently empty list).
func validStatus(s Status) bool {
	switch s {
	case StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCanceled, StatusTimeout:
		return true
	}
	return false
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := s.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run "+id)
		return
	}
	if r.URL.Query().Get("wait") == "true" && !v.Status.terminal() {
		var err error
		v, err = s.waitBudgeted(r, id, deadlineBudget(r))
		if err != nil {
			return
		}
	}
	s.writeRun(w, http.StatusOK, v, false)
}

// waitBudgeted blocks on a run like Wait, additionally bounded by the
// request's propagated deadline budget (plus 50ms of grace so the
// run's own budget-derived execution timeout lands first). When the
// budget — not the client — ends the wait, the latest snapshot is
// returned with a nil error so the handler answers with whatever state
// the run reached; a client disconnect still surfaces as the error.
func (s *Server) waitBudgeted(r *http.Request, id string, budget time.Duration) (RunView, error) {
	ctx := r.Context()
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget+50*time.Millisecond)
		defer cancel()
	}
	v, err := s.Wait(ctx, id)
	if err != nil && r.Context().Err() == nil {
		// Budget spent while waiting; the snapshot is the answer.
		return v, nil
	}
	return v, err
}

// deadlineBudget reads the propagated X-Piuma-Deadline-Ms budget
// (zero when absent or malformed — the header is advisory).
func deadlineBudget(r *http.Request) time.Duration {
	v := r.Header.Get(DeadlineHeader)
	if v == "" {
		return 0
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// handleRunProfile serves a done run's per-component simulation
// profile. Runs that executed no event-level simulation (analytical
// experiments) report an empty run list.
func (s *Server) handleRunProfile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	p, status, ok := s.Profile(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run "+id)
		return
	}
	if status != StatusDone {
		writeError(w, http.StatusConflict, "run "+id+" is "+string(status)+", profile available once done")
		return
	}
	if p == nil {
		p = &obs.Profile{Runs: []obs.RunStats{}}
	}
	writeJSON(w, http.StatusOK, p)
}

func (s *Server) handleCancelRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, err := s.Cancel(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	s.writeRun(w, http.StatusOK, v, false)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"experiments": len(s.cfg.Experiments),
		"queue_depth": s.QueueDepth(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.render(w, s.QueueDepth(), s.Draining(), s.JournalBytes())
}
