package gate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"piumagcn/internal/bench"
	"piumagcn/internal/serve"
)

// BackendHeader names the replica that ultimately served a proxied
// request. The gate sets it on every relayed response (alongside the
// backend's own serve.ReplicaHeader, which passes through untouched),
// so clients and smoke tests can observe routing without scraping
// metrics.
const BackendHeader = "X-Piuma-Backend"

// maxSubmitBytes mirrors the serving tier's POST body bound: the gate
// rejects oversized submissions before any backend buffers them.
const maxSubmitBytes = 1 << 20

// Handler returns the gate's HTTP API — the same /v1/* surface as
// piumaserve, plus the gate's own introspection:
//
//	GET    /v1/experiments     proxied to the first healthy replica
//	POST   /v1/runs            admission → routing policy → forward
//	                           (failover on backend death)
//	GET    /v1/runs            fan-out merge of every replica's runs
//	GET    /v1/runs/{id}       fan-out lookup (ledger or affinity home first)
//	GET    /v1/runs/{id}/profile  fan-out lookup
//	DELETE /v1/runs/{id}       fan-out cancel
//	GET    /v1/gate/backends   replica registry status
//	GET    /healthz            200 while ≥1 replica is healthy
//	GET    /metrics            gate families + scraped per-backend aggregates
func (g *Gate) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/experiments", g.handleExperiments)
	mux.HandleFunc("POST /v1/runs", g.handleSubmit)
	mux.HandleFunc("GET /v1/runs", g.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", g.handleRead)
	mux.HandleFunc("GET /v1/runs/{id}/profile", g.handleRead)
	mux.HandleFunc("DELETE /v1/runs/{id}", g.handleRead)
	mux.HandleFunc("GET /v1/gate/backends", g.handleBackends)
	mux.HandleFunc("GET /healthz", g.handleHealth)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	return mux
}

// submitRequest mirrors the serving tier's POST /v1/runs body so the
// gate derives the exact same content-addressed RunID a backend will
// (omitted option fields take bench defaults on both sides).
type submitRequest struct {
	Experiment string         `json:"experiment"`
	Options    *bench.Options `json:"options"`
}

func (g *Gate) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := g.clock.Now()
	class := normalizeClass(r.Header.Get(serve.SLOClassHeader))
	defer func() {
		g.metrics.observeClass(class, g.clock.Now().Sub(start).Seconds())
	}()

	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return
	}
	defaults := bench.DefaultOptions()
	req := submitRequest{Options: &defaults}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed request body: "+err.Error())
		return
	}
	if req.Options == nil {
		req.Options = &defaults
	}
	if req.Experiment == "" {
		writeError(w, http.StatusBadRequest, `missing "experiment" field`)
		return
	}

	// Admission: reject before any backend sees the request. The class
	// quota is charged first, then the global rate bucket.
	if ok, wait, scope := g.adm.admit(class, g.clock.Now()); !ok {
		g.metrics.incRejected(scope)
		w.Header().Set("Retry-After", retryAfterSeconds(wait))
		if scope == "global" {
			writeError(w, http.StatusTooManyRequests, "admission: cluster rate limit exceeded")
		} else {
			writeError(w, http.StatusTooManyRequests, "admission: quota for class "+scope+" exceeded")
		}
		return
	}

	runID := serve.RunID(req.Experiment, *req.Options)
	rc := RouteContext{Seq: g.seq.Add(1) - 1, RunID: runID, Class: class}
	deadline := g.parseDeadline(r, start)

	// Durable intake: journal the admitted run before any backend sees
	// it. acceptedBackend settles the ledger outcome on every exit path —
	// a backend acknowledged the run (routed) or nobody did (rejected
	// terminal, so the run does not linger as a phantom orphan the
	// reconciler would resurrect after the client was told "no").
	acceptedBackend := ""
	if g.ledger != nil {
		opts, merr := json.Marshal(req.Options)
		if merr == nil {
			merr = g.ledger.Admitted(runID, req.Experiment, opts, class, g.clock.Now().UnixMilli())
		}
		if merr != nil {
			// The durability promise cannot be met; refusing is the only
			// honest answer (an unjournaled acceptance would be exactly
			// the amnesia the ledger exists to prevent).
			g.metrics.incLedgerError()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "intake ledger unavailable: "+merr.Error())
			return
		}
		defer func() {
			if acceptedBackend != "" {
				g.ledgerRouted(runID, acceptedBackend)
			} else {
				g.ledgerRejected(runID)
			}
		}()
	}

	candidates := g.reg.Healthy()
	if len(candidates) == 0 {
		g.metrics.incNoBackend()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "no healthy backend")
		return
	}
	// last5xx remembers a backend's server error to relay if every
	// alternative also fails: a 5xx opens the circuit and resubmits the
	// run elsewhere (idempotent — the RunID is a content address), but
	// the client still deserves the original error when the whole
	// cluster is burning.
	var last5xx *http.Response
	var last5xxRep *Replica
	circuitRefused := false
	for attempt := 0; len(candidates) > 0; attempt++ {
		if !deadline.IsZero() && !g.clock.Now().Before(deadline) {
			discardIf(last5xx)
			g.metrics.incDeadlineExceeded()
			writeError(w, http.StatusGatewayTimeout, "deadline budget exhausted at the gate")
			return
		}
		// Circuit filter: route only among backends whose circuit admits
		// traffic right now (closed, cooled-down open, or half-open with
		// a free trial slot).
		now := g.clock.Now()
		avail := make([]*Replica, 0, len(candidates))
		for _, rep := range candidates {
			if rep.admits(now) {
				avail = append(avail, rep)
			}
		}
		if len(avail) == 0 {
			circuitRefused = true
			break
		}
		rep := g.router.Pick(rc, avail)
		if !g.reg.observe(rep, claim) {
			// A concurrent request took the half-open trial slot between
			// the availability check and the claim.
			candidates = without(candidates, rep)
			continue
		}
		if g.cfg.OnDecision != nil {
			g.cfg.OnDecision(Decision{
				Seq: rc.Seq, RunID: runID,
				Policy: g.router.Policy(), Backend: rep.Name, Attempt: attempt,
			})
		}
		g.metrics.incRouted(g.router.Policy(), rep.Name)
		if attempt > 0 {
			g.metrics.incFailover()
		}

		rep.addInFlight(1)
		resp, err := g.forward(r, rep, http.MethodPost, "/v1/runs", body, deadline)
		if err != nil {
			rep.addInFlight(-1)
			if errors.Is(err, errBudgetExhausted) {
				g.reg.observe(rep, noVerdict)
				discardIf(last5xx)
				g.metrics.incDeadlineExceeded()
				writeError(w, http.StatusGatewayTimeout, "deadline budget exhausted at the gate")
				return
			}
			if r.Context().Err() != nil {
				// Client gone: no verdict on the backend.
				g.reg.observe(rep, noVerdict)
				discardIf(last5xx)
				return
			}
			// Backend died mid-flight. Resubmitting elsewhere is safe:
			// the RunID is a content address, so the worst case is a
			// dedup/cache hit when the corpse comes back — never a
			// duplicate simulation surfacing twice.
			g.reg.observe(rep, transportError)
			candidates = without(candidates, rep)
			continue
		}
		if resp.StatusCode >= 500 {
			// The process is reachable but serving errors — exactly what
			// the circuit breaker exists for. The replica stays reachable
			// (healthz may be fine); the circuit routes around it.
			g.reg.observe(rep, submit5xx)
			candidates = without(candidates, rep)
			if len(candidates) > 0 {
				rep.addInFlight(-1)
				discardIf(last5xx)
				last5xx, last5xxRep = resp, rep
				g.metrics.incServerErrRetry()
				continue
			}
			discardIf(last5xx)
			g.relay(w, resp, rep)
			rep.addInFlight(-1)
			return
		}
		g.reg.observe(rep, submitOK)
		if resp.StatusCode < 300 {
			// The backend owns the run now; a 4xx means it refused the
			// submission, which settles the ledger as rejected.
			acceptedBackend = rep.Name
		}
		discardIf(last5xx)
		g.relay(w, resp, rep)
		rep.addInFlight(-1)
		return
	}
	if last5xx != nil {
		g.relay(w, last5xx, last5xxRep)
		return
	}
	if circuitRefused {
		g.metrics.incBreakerRejected()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "every healthy backend's circuit is open")
		return
	}
	g.metrics.incNoBackend()
	writeError(w, http.StatusBadGateway, "every healthy backend died while forwarding the run")
}

// parseDeadline derives the absolute deadline from the caller's
// X-Piuma-Deadline-Ms budget header (zero when absent or malformed —
// a malformed budget is ignored rather than rejected, because the
// header is advisory end-to-end metadata, not part of the API shape).
func (g *Gate) parseDeadline(r *http.Request, start time.Time) time.Time {
	v := r.Header.Get(serve.DeadlineHeader)
	if v == "" {
		return time.Time{}
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return time.Time{}
	}
	return start.Add(time.Duration(ms) * time.Millisecond)
}

// handleRead serves the per-run read/cancel endpoints by trying each
// healthy replica in order until one knows the run. The replica the
// intake ledger routed the run to is tried first (under the
// cache-affinity policy, without a record, the run's ring home), so the
// common case is a single upstream request.
func (g *Gate) handleRead(w http.ResponseWriter, r *http.Request) {
	start := g.clock.Now()
	id := r.PathValue("id")
	path := "/v1/runs/" + id
	if r.Method == http.MethodGet && len(r.URL.Path) > len(path) {
		path += "/profile"
	}
	deadline := g.parseDeadline(r, start)
	candidates := g.reg.Healthy()
	if len(candidates) == 0 {
		g.metrics.incNoBackend()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "no healthy backend")
		return
	}
	if home := g.readHome(id, candidates); home != nil {
		candidates = preferFirst(candidates, home)
	}
	var last *http.Response
	for _, rep := range candidates {
		resp, err := g.forward(r, rep, r.Method, path, nil, deadline)
		if err != nil {
			if errors.Is(err, errBudgetExhausted) {
				discardIf(last)
				g.metrics.incDeadlineExceeded()
				writeError(w, http.StatusGatewayTimeout, "deadline budget exhausted at the gate")
				return
			}
			if r.Context().Err() != nil {
				discardIf(last)
				return
			}
			g.reg.observe(rep, transportError)
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			// Another replica may own the run; keep looking, but
			// remember one 404 to relay if nobody does.
			discardIf(last)
			last = resp
			continue
		}
		discardIf(last)
		g.relay(w, resp, rep)
		return
	}
	if last != nil {
		// Relay the backend's own 404 body (it names the unknown run).
		g.relay(w, last, nil)
		return
	}
	writeError(w, http.StatusBadGateway, "every healthy backend died while looking up run "+id)
}

// readHome is the replica a read of run id asks first: the backend the
// intake ledger last routed the run to, or, when the ledger has no
// healthy backend on record, the affinity ring's pick. Nil keeps
// registration order.
func (g *Gate) readHome(id string, candidates []*Replica) *Replica {
	if g.ledger != nil {
		if run, ok := g.ledger.Run(id); ok {
			for _, rep := range candidates {
				if rep.Name == run.Backend {
					return rep
				}
			}
		}
	}
	if a, ok := g.router.(*affinity); ok {
		return a.Pick(RouteContext{RunID: id}, candidates)
	}
	return nil
}

// clusterRun is one run in the gate's merged listing: the backend name
// is annotated so operators can see where each run lives.
type clusterRun struct {
	serve.RunResource
	Backend string `json:"backend,omitempty"`
}

// handleList merges every healthy replica's run listing. A run that
// failed over mid-flight may appear on two replicas (same ID,
// different backends); the listing shows both, which is the honest
// cluster view.
func (g *Gate) handleList(w http.ResponseWriter, r *http.Request) {
	runs := make([]clusterRun, 0, 64)
	reached := false
	for _, rep := range g.reg.Healthy() {
		resp, err := g.forward(r, rep, http.MethodGet, "/v1/runs", nil, time.Time{})
		if err != nil {
			if r.Context().Err() != nil {
				return
			}
			g.reg.observe(rep, transportError)
			continue
		}
		var out []serve.RunResource
		derr := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&out)
		resp.Body.Close()
		if derr != nil {
			continue
		}
		reached = true
		for _, v := range out {
			runs = append(runs, clusterRun{RunResource: v, Backend: rep.Name})
		}
	}
	if !reached {
		g.metrics.incNoBackend()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "no healthy backend")
		return
	}
	sort.Slice(runs, func(i, j int) bool {
		ti, tj := runs[i].SubmittedAt, runs[j].SubmittedAt
		switch {
		case ti == nil && tj != nil:
			return false
		case ti != nil && tj == nil:
			return true
		case ti != nil && tj != nil && !ti.Equal(*tj):
			return ti.After(*tj)
		}
		if runs[i].ID != runs[j].ID {
			return runs[i].ID < runs[j].ID
		}
		return runs[i].Backend < runs[j].Backend
	})
	writeJSON(w, http.StatusOK, runs)
}

// handleExperiments proxies the registry listing from the first
// healthy replica (every replica serves the same registry).
func (g *Gate) handleExperiments(w http.ResponseWriter, r *http.Request) {
	for _, rep := range g.reg.Healthy() {
		resp, err := g.forward(r, rep, http.MethodGet, "/v1/experiments", nil, time.Time{})
		if err != nil {
			if r.Context().Err() != nil {
				return
			}
			g.reg.observe(rep, transportError)
			continue
		}
		g.relay(w, resp, rep)
		return
	}
	g.metrics.incNoBackend()
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "no healthy backend")
}

func (g *Gate) handleBackends(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.reg.StatusAll())
}

func (g *Gate) handleHealth(w http.ResponseWriter, r *http.Request) {
	statuses := g.reg.StatusAll()
	healthy := 0
	for _, s := range statuses {
		if s.Healthy {
			healthy++
		}
	}
	body := map[string]any{
		"status":   "ok",
		"policy":   g.router.Policy(),
		"healthy":  healthy,
		"backends": statuses,
	}
	if healthy == 0 {
		body["status"] = "unhealthy"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (g *Gate) handleMetrics(w http.ResponseWriter, r *http.Request) {
	g.scrapeBackends(r.Context())
	if g.ledger != nil {
		g.metrics.setLedgerOpen(float64(g.ledger.NonTerminalLen()))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.metrics.render(w, g.reg)
}

// errBudgetExhausted marks a forward refused because the propagated
// deadline budget was already spent at the gate.
var errBudgetExhausted = errors.New("gate: deadline budget exhausted")

// forward issues one upstream request on the incoming request's
// context. body may be nil (reads); the original query string and the
// SLO-class header ride along. A non-zero deadline is the propagated
// budget: the remaining milliseconds are re-stamped on the upstream
// X-Piuma-Deadline-Ms header — decremented by however long the gate
// has already held the request — and a spent budget refuses the
// forward outright with errBudgetExhausted.
func (g *Gate) forward(r *http.Request, rep *Replica, method, path string, body []byte, deadline time.Time) (*http.Response, error) {
	u := rep.URL + path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), method, u, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if v := r.Header.Get(serve.SLOClassHeader); v != "" {
		req.Header.Set(serve.SLOClassHeader, v)
	}
	if !deadline.IsZero() {
		remain := deadline.Sub(g.clock.Now())
		if remain <= 0 {
			return nil, errBudgetExhausted
		}
		req.Header.Set(serve.DeadlineHeader, strconv.FormatInt(max(1, remain.Milliseconds()), 10))
	}
	return g.hc.Do(req)
}

// relay copies an upstream response to the client, stamping which
// backend served it. rep may be nil when relaying a remembered
// response whose replica no longer matters (the all-404 case).
func (g *Gate) relay(w http.ResponseWriter, resp *http.Response, rep *Replica) {
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	if rep != nil {
		h.Set(BackendHeader, rep.Name)
	}
	w.WriteHeader(resp.StatusCode)
	// Copy through Write with a pooled buffer. io.Copy would hand a
	// body with a Content-Length to the connection's ReadFrom, which
	// allocates a fresh 32 KiB buffer for every response.
	buf := relayBufs.Get().(*[]byte)
	defer relayBufs.Put(buf)
	if _, err := io.CopyBuffer(struct{ io.Writer }{w}, resp.Body, *buf); err != nil {
		// Headers are gone; failover is impossible. Count it.
		g.metrics.incProxyError()
	}
}

// relayBufs holds relay's copy buffers.
var relayBufs = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// discardIf drains and closes resp, a response kept only
// provisionally, when non-nil.
func discardIf(resp *http.Response) {
	if resp != nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}
}

// without returns candidates minus rep, preserving order.
func without(candidates []*Replica, rep *Replica) []*Replica {
	out := candidates[:0:0]
	for _, r := range candidates {
		if r != rep {
			out = append(out, r)
		}
	}
	return out
}

// preferFirst moves rep to the front of candidates, preserving the
// relative order of the rest.
func preferFirst(candidates []*Replica, rep *Replica) []*Replica {
	out := make([]*Replica, 0, len(candidates))
	out = append(out, rep)
	for _, r := range candidates {
		if r != rep {
			out = append(out, r)
		}
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
