package gate

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piumagcn/internal/bench"
	"piumagcn/internal/serve"
)

// fixedClock is a mutable virtual clock; tests advance it explicitly.
type fixedClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFixedClock() *fixedClock {
	return &fixedClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fixedClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fixedClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// fakeBackend is a minimal piumaserve stand-in with a static /metrics
// exposition, so gate aggregation output is reproducible.
func fakeBackend(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"r-fake","experiment":"table1","status":"done"}`)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "piumaserve_queue_depth 2\n"+
			"piumaserve_runs_submitted_total 5\n"+
			"piumaserve_runs_completed_total 4\n"+
			"piumaserve_cache_hits_total 3\n"+
			"piumaserve_dedup_hits_total 1\n")
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func mustGate(t *testing.T, cfg Config) *Gate {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Shutdown)
	return g
}

func submitBody(seed int) string {
	return fmt.Sprintf(`{"experiment":"table1","options":{"quick":true,"max_sim_edges":1024,"seed":%d}}`, seed)
}

// routeSequence runs a fixed 12-request sequence through a fresh gate
// under an injected clock and returns the routing-decision log as JSON
// plus the /metrics exposition bytes.
func routeSequence(t *testing.T, urls []string) (decisions, exposition []byte) {
	t.Helper()
	var log []Decision
	g := mustGate(t, Config{
		Backends:      urls,
		Seed:          1,
		ProbeInterval: -1,
		Clock:         newFixedClock(),
		OnDecision:    func(d Decision) { log = append(log, d) },
	})
	h := g.Handler()
	classes := []string{"gold", "silver", "batch"}
	for i := 0; i < 12; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(submitBody(i%5)))
		req.Header.Set(serve.SLOClassHeader, classes[i%3])
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("submit %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rec.Code)
	}
	dj, err := json.Marshal(log)
	if err != nil {
		t.Fatal(err)
	}
	return dj, rec.Body.Bytes()
}

// TestRoutingDeterministic is the gate's determinism contract: under an
// injected clock and fixed seed, an identical request sequence produces
// a byte-identical decision log and byte-identical aggregated /metrics.
func TestRoutingDeterministic(t *testing.T) {
	urls := []string{fakeBackend(t).URL, fakeBackend(t).URL, fakeBackend(t).URL}
	d1, m1 := routeSequence(t, urls)
	d2, m2 := routeSequence(t, urls)
	if string(d1) != string(d2) {
		t.Errorf("decision logs differ:\n%s\nvs\n%s", d1, d2)
	}
	if string(m1) != string(m2) {
		t.Errorf("/metrics differ across identical runs:\n%s\nvs\n%s", m1, m2)
	}
}

// TestAffinityRepeatsStick checks that repeat submissions of the same
// options route to the same backend.
func TestAffinityRepeatsStick(t *testing.T) {
	urls := []string{fakeBackend(t).URL, fakeBackend(t).URL, fakeBackend(t).URL}
	decisions, _ := routeSequence(t, urls)
	var log []Decision
	if err := json.Unmarshal(decisions, &log); err != nil {
		t.Fatal(err)
	}
	home := map[string]string{}
	for _, d := range log {
		if prev, ok := home[d.RunID]; ok && prev != d.Backend {
			t.Fatalf("run %s moved from %s to %s", d.RunID, prev, d.Backend)
		}
		home[d.RunID] = d.Backend
	}
	if len(home) != 5 {
		t.Fatalf("want 5 distinct run IDs, got %d", len(home))
	}
}

// dyingBackend accepts health probes but kills the connection on every
// submission — a backend that dies mid-request.
func dyingBackend(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close()
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestFailoverOnBackendDeath: a submission whose backend dies mid-flight
// is resubmitted to the next healthy replica and still succeeds; the
// corpse is marked down so later requests skip it entirely.
func TestFailoverOnBackendDeath(t *testing.T) {
	dead := dyingBackend(t)
	live := fakeBackend(t)
	var log []Decision
	g := mustGate(t, Config{
		Backends:      []string{dead.URL, live.URL},
		ProbeInterval: -1,
		Clock:         newFixedClock(),
		OnDecision:    func(d Decision) { log = append(log, d) },
	})
	h := g.Handler()

	// The run's home is b0 (dead): it routes there first, then fails
	// over to b1.
	seed := homedSeeds(t, 2, 1)[0][0]
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(submitBody(seed))))
	if rec.Code != http.StatusOK {
		t.Fatalf("failover submit: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(BackendHeader); got != "b1" {
		t.Fatalf("want response from b1, got %q", got)
	}
	if len(log) != 2 || log[0].Backend != "b0" || log[0].Attempt != 0 || log[1].Backend != "b1" || log[1].Attempt != 1 {
		t.Fatalf("unexpected decision log: %+v", log)
	}
	st := g.Registry().StatusAll()
	if st[0].Healthy || !st[1].Healthy {
		t.Fatalf("want b0 down and b1 up after failover, got %+v", st)
	}

	// The corpse is out of the candidate set: the next submission goes
	// straight to b1 with no extra attempt.
	log = log[:0]
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(submitBody(2))))
	if rec.Code != http.StatusOK || len(log) != 1 || log[0].Backend != "b1" {
		t.Fatalf("post-failover submit: status %d, log %+v", rec.Code, log)
	}

	// The metrics account the failover.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "piumagate_failovers_total 1") {
		t.Errorf("metrics missing failover count:\n%s", rec.Body.String())
	}
}

// TestAllBackendsDead: when every replica dies mid-request the gate
// reports 502; with no healthy replica at all it reports 503 up front.
func TestAllBackendsDead(t *testing.T) {
	g := mustGate(t, Config{
		Backends:      []string{dyingBackend(t).URL, dyingBackend(t).URL},
		ProbeInterval: -1,
		Clock:         newFixedClock(),
	})
	h := g.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(submitBody(1))))
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("want 502 when every backend dies, got %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(submitBody(2))))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("want 503 with no healthy backend, got %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 should carry Retry-After")
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz should be 503 with zero healthy replicas, got %d", rec.Code)
	}
}

// TestProbeRecovery: a marked-down replica is skipped while its backoff
// window holds, then re-probed and restored once the (virtual) clock
// passes it.
func TestProbeRecovery(t *testing.T) {
	var down atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	clock := newFixedClock()
	g := mustGate(t, Config{
		Backends:      []string{ts.URL},
		ProbeInterval: -1,
		Clock:         clock,
		Seed:          7,
	})
	rep := g.Registry().All()[0]

	down.Store(true)
	g.reg.observe(rep, transportError)
	if rep.Healthy() {
		t.Fatal("a transport error should demote")
	}
	// Still inside the backoff window: ProbeAll must not probe (the
	// backend is down anyway, but the point is the skip).
	g.ProbeAll(context.Background())
	if rep.Healthy() {
		t.Fatal("probe during backoff window should not run")
	}
	// Past the window with the backend still down: failure count grows.
	clock.Advance(2 * time.Second)
	g.ProbeAll(context.Background())
	if rep.Healthy() || rep.Fails() != 2 {
		t.Fatalf("want 2 consecutive fails, got healthy=%v fails=%d", rep.Healthy(), rep.Fails())
	}
	// Backend recovers; advance far past any backoff and re-probe.
	down.Store(false)
	clock.Advance(time.Minute)
	g.ProbeAll(context.Background())
	if !rep.Healthy() || rep.Fails() != 0 {
		t.Fatalf("want recovered replica, got healthy=%v fails=%d", rep.Healthy(), rep.Fails())
	}
}

// instantExperiment completes immediately — enough to exercise the real
// serving stack end to end.
func instantExperiment(id string) bench.Experiment {
	return bench.Experiment{
		ID:    id,
		Title: "instant " + id,
		Run: func(ctx context.Context, o bench.Options) (*bench.Report, error) {
			r := &bench.Report{ID: id, Title: "instant"}
			r.Add("section", "body")
			return r, nil
		},
	}
}

// newCluster builds two real piumaserve replicas behind a gate and
// returns a serve.Client pointed at the gate.
func newCluster(t *testing.T) *serve.Client {
	t.Helper()
	urls := make([]string, 2)
	for i := range urls {
		srv := serve.New(serve.Config{
			Experiments: []bench.Experiment{instantExperiment("table1")},
			Replica:     "r" + strconv.Itoa(i),
		})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		urls[i] = ts.URL
	}
	g := mustGate(t, Config{Backends: urls, ProbeInterval: -1})
	gts := httptest.NewServer(g.Handler())
	t.Cleanup(gts.Close)
	return serve.NewClient(gts.URL, nil)
}

// TestRepeatSubmissionsHitCache is the cache-affinity acceptance
// criterion, end to end over real serve replicas: K distinct runs are
// submitted through the gate, then the identical set again, and every
// repeat lands on the replica that already holds the result.
func TestRepeatSubmissionsHitCache(t *testing.T) {
	client := newCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const k = 7
	opts := func(i int) bench.Options {
		return bench.Options{Quick: true, MaxSimEdges: 1 << 10, Seed: int64(100 + i)}
	}
	for i := 0; i < k; i++ {
		if _, status, err := client.SubmitAndWait(ctx, "table1", opts(i), "gold"); err != nil || status != http.StatusOK {
			t.Fatalf("first pass %d: status %d err %v", i, status, err)
		}
	}
	hits := 0
	for i := 0; i < k; i++ {
		res, status, err := client.SubmitAndWait(ctx, "table1", opts(i), "gold")
		if err != nil || status != http.StatusOK {
			t.Fatalf("second pass %d: status %d err %v", i, status, err)
		}
		if res.Cached {
			hits++
		}
	}
	if hits != k {
		t.Errorf("every repeat should hit the cache: got %d/%d", hits, k)
	}
}

// TestGateAPISurface covers the proxied read endpoints end to end:
// list, get, profile, experiments, backends introspection.
func TestGateAPISurface(t *testing.T) {
	client := newCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, status, err := client.SubmitAndWait(ctx, "table1", bench.Options{Quick: true, MaxSimEdges: 1 << 10, Seed: 5}, "silver")
	if err != nil || status != http.StatusOK {
		t.Fatalf("submit: status %d err %v", status, err)
	}

	base := client.Base()
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	if code, body := get("/v1/runs/" + res.ID); code != http.StatusOK || !strings.Contains(string(body), res.ID) {
		t.Fatalf("get run: %d %s", code, body)
	}
	if code, _ := get("/v1/runs/" + res.ID + "/profile"); code != http.StatusOK {
		t.Fatalf("get profile: %d", code)
	}
	if code, _ := get("/v1/runs/r-doesnotexist"); code != http.StatusNotFound {
		t.Fatalf("unknown run should 404 through the gate, got %d", code)
	}
	code, body := get("/v1/runs")
	if code != http.StatusOK || !strings.Contains(string(body), `"backend"`) {
		t.Fatalf("list should annotate backends: %d %s", code, body)
	}
	if code, body := get("/v1/experiments"); code != http.StatusOK || !strings.Contains(string(body), "table1") {
		t.Fatalf("experiments: %d %s", code, body)
	}
	code, body = get("/v1/gate/backends")
	if code != http.StatusOK || !strings.Contains(string(body), `"b0"`) || !strings.Contains(string(body), `"b1"`) {
		t.Fatalf("backends introspection: %d %s", code, body)
	}
}
