package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piumagcn/internal/bench"
	"piumagcn/internal/chaos"
	"piumagcn/internal/serve"
	"piumagcn/internal/workload"
)

// scriptedBackend is a fake replica whose POST /v1/runs serves 500s
// while fail is set; onSubmit (when non-nil) observes each submission
// before the response is written. healthz always answers 200, so the
// registry sees the process alive even while it burns submissions —
// exactly the failure mode the circuit breaker exists for.
func scriptedBackend(t *testing.T, fail *atomic.Bool, onSubmit func(r *http.Request)) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		if onSubmit != nil {
			onSubmit(r)
		}
		if fail != nil && fail.Load() {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, `{"error":"simulated server meltdown"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"r-fake","experiment":"table1","status":"done"}`)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "piumaserve_queue_depth 0\n")
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func postRun(t *testing.T, h http.Handler, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func metricsBody(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rec.Code)
	}
	return rec.Body.String()
}

// TestBreakerOpensAndRecovers walks one replica's circuit through the
// full closed → open → half-open → closed cycle: a 5xx burst opens it
// after the threshold (without touching registry health), an open
// circuit refuses submissions with a 503, and after the cooldown the
// next submission runs as the half-open probe whose success closes the
// circuit again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	fail := &atomic.Bool{}
	fail.Store(true)
	ts := scriptedBackend(t, fail, nil)
	clock := newFixedClock()
	var moves []BreakerTransition
	g := mustGate(t, Config{
		Backends:         []string{ts.URL},
		Seed:             1,
		ProbeInterval:    -1,
		Clock:            clock,
		BreakerThreshold: 3,
		OnBreaker:        func(bt BreakerTransition) { moves = append(moves, bt) },
	})
	h := g.Handler()

	// Three consecutive 5xx (single backend: each is relayed) open the
	// circuit. The registry must still see the replica healthy — healthz
	// answers fine; "reachable" and "serving" are different questions.
	for i := 0; i < 3; i++ {
		if rec := postRun(t, h, submitBody(1), nil); rec.Code != http.StatusInternalServerError {
			t.Fatalf("burn %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	rep := g.Registry().All()[0]
	if st := rep.BreakerState(); st != BreakerOpen {
		t.Fatalf("after threshold failures breaker = %q, want open", st)
	}
	if !rep.Healthy() {
		t.Fatal("5xx burst must not mark the replica down in the registry")
	}

	// Open circuit: submissions are refused outright with a retry hint.
	rec := postRun(t, h, submitBody(2), nil)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "circuit is open") {
		t.Fatalf("open circuit: status %d body %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("open-circuit 503 must carry Retry-After")
	}

	// Introspection shows the circuit state.
	brec := httptest.NewRecorder()
	h.ServeHTTP(brec, httptest.NewRequest(http.MethodGet, "/v1/gate/backends", nil))
	if !strings.Contains(brec.Body.String(), `"breaker": "open"`) {
		t.Fatalf("backends introspection missing open breaker: %s", brec.Body.String())
	}

	// Past the cooldown with the backend recovered: the next submission
	// is the half-open probe, and its success closes the circuit.
	fail.Store(false)
	clock.Advance(5 * time.Second)
	if rec := postRun(t, h, submitBody(3), nil); rec.Code != http.StatusOK {
		t.Fatalf("half-open probe: status %d: %s", rec.Code, rec.Body.String())
	}
	if st := rep.BreakerState(); st != BreakerClosed {
		t.Fatalf("after probe success breaker = %q, want closed", st)
	}

	wantTo := []string{BreakerOpen, BreakerHalfOpen, BreakerClosed}
	if len(moves) != len(wantTo) {
		t.Fatalf("breaker transitions = %+v, want destinations %v", moves, wantTo)
	}
	for i, m := range moves {
		if m.To != wantTo[i] {
			t.Fatalf("transition %d = %+v, want to=%q", i, m, wantTo[i])
		}
		if i > 0 && m.Seq <= moves[i-1].Seq {
			t.Fatalf("transition seqs not monotonic: %+v", moves)
		}
	}

	m := metricsBody(t, h)
	for _, want := range []string{
		"piumagate_breaker_rejected_total 1",
		`piumagate_breaker_transitions_total{backend="b0",state="open"} 1`,
		`piumagate_breaker_transitions_total{backend="b0",state="closed"} 1`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q:\n%s", want, m)
		}
	}
}

// TestServerErrorFailover: a backend 5xx is retried on the next healthy
// replica (safe — the RunID is a content address), the client sees the
// success, and the erroring replica stays registry-healthy while its
// breaker accrues the failure.
func TestServerErrorFailover(t *testing.T) {
	fail := &atomic.Bool{}
	fail.Store(true)
	bad := scriptedBackend(t, fail, nil)
	good := fakeBackend(t)
	g := mustGate(t, Config{
		Backends:      []string{bad.URL, good.URL},
		Seed:          1,
		ProbeInterval: -1,
		Clock:         newFixedClock(),
	})
	h := g.Handler()

	rec := postRun(t, h, submitBody(homedSeeds(t, 2, 1)[0][0]), nil) // homed on b0
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(BackendHeader); got != "b1" {
		t.Fatalf("served by %q, want the 5xx to fail over to b1", got)
	}
	rep := g.Registry().All()[0]
	if !rep.Healthy() {
		t.Fatal("a 5xx is a breaker verdict, not a registry mark-down")
	}
	m := metricsBody(t, h)
	if !strings.Contains(m, "piumagate_server_error_retries_total 1") {
		t.Errorf("metrics missing server-error retry count:\n%s", m)
	}
	if !strings.Contains(m, "piumagate_failovers_total 1") {
		t.Errorf("metrics missing failover count:\n%s", m)
	}
}

// TestBreakerUnderProbeFlapHysteresis crosses the two damping
// mechanisms: a replica that flaps at the probe level — every other
// healthz fails, always under the MarkDownAfter threshold — while also
// burning submissions with 5xx. The probe flapping must never evict it
// from the registry (hysteresis holds), the 5xx burst must still trip
// its breaker (the mechanisms are independent), and once the backend
// heals the breaker closes cleanly with the replica's registry
// membership never having changed.
func TestBreakerUnderProbeFlapHysteresis(t *testing.T) {
	var healthzFlap atomic.Bool // fail every other probe
	fail := &atomic.Bool{}
	fail.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if healthzFlap.Load() {
			healthzFlap.Store(false)
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		healthzFlap.Store(true)
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, `{"error":"simulated meltdown"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"r-fake","experiment":"table1","status":"done"}`)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "piumaserve_queue_depth 0\n")
	})
	flappy := httptest.NewServer(mux)
	t.Cleanup(flappy.Close)
	steady := fakeBackend(t)

	clock := newFixedClock()
	var moves []BreakerTransition
	g := mustGate(t, Config{
		Backends:         []string{flappy.URL, steady.URL},
		Seed:             1,
		ProbeInterval:    -1,
		MarkDownAfter:    2,
		BreakerThreshold: 3,
		Clock:            clock,
		OnBreaker:        func(bt BreakerTransition) { moves = append(moves, bt) },
	})
	h := g.Handler()
	ctx := context.Background()
	rep := g.Registry().All()[0]

	healthzFlap.Store(true)
	// Interleave flapping probes with a 5xx burst: every even-round
	// submission is homed on b0, eats its 5xx and fails over to b1,
	// charging b0's breaker; every odd-round one is homed on b1; every
	// probe round alternates fail/pass and so never reaches two
	// consecutive failures.
	homed := homedSeeds(t, 2, 4)
	for i := 0; i < 6; i++ {
		g.ProbeAll(ctx)
		clock.Advance(3 * time.Second) // past any single-failure backoff
		rec := postRun(t, h, submitBody(homed[i%2][i/2]), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("submit %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if !rep.Healthy() {
			t.Fatalf("round %d: probe flapping under the threshold evicted b0 from the registry", i)
		}
	}
	if st := rep.BreakerState(); st != BreakerOpen {
		t.Fatalf("breaker = %q after the 5xx burst, want open", st)
	}
	if n := len(g.Registry().Healthy()); n != 2 {
		t.Fatalf("healthy replicas = %d, want 2 (breaker verdicts must not touch registry membership)", n)
	}

	// The backend heals; past the cooldown the half-open probe closes
	// the circuit, with b0 having been registry-healthy the whole time.
	fail.Store(false)
	clock.Advance(5 * time.Second)
	for i := 0; i < 2; i++ { // a b0-homed run reaches b0 again
		if rec := postRun(t, h, submitBody(homed[i][3]), nil); rec.Code != http.StatusOK {
			t.Fatalf("recovery submit %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	if st := rep.BreakerState(); st != BreakerClosed {
		t.Fatalf("breaker = %q after recovery, want closed", st)
	}
	if !rep.Healthy() {
		t.Fatal("b0 left the registry at some point during the episode")
	}
	wantTo := []string{BreakerOpen, BreakerHalfOpen, BreakerClosed}
	if len(moves) != len(wantTo) {
		t.Fatalf("breaker transitions = %+v, want destinations %v", moves, wantTo)
	}
	for i, m := range moves {
		if m.To != wantTo[i] {
			t.Fatalf("transition %d = %+v, want to=%q", i, m, wantTo[i])
		}
	}
}

// TestMarkDownHysteresis: one failed health probe must not demote a
// replica (MarkDownAfter=2) — so a probe lost to a chaos latency spike
// neither flaps routing nor moves every consistent-hash key the
// replica owns. Two consecutive failures do demote.
func TestMarkDownHysteresis(t *testing.T) {
	var healthzFails atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if healthzFails.Load() > 0 {
			healthzFails.Add(-1)
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"r-fake","experiment":"table1","status":"done"}`)
	})
	flappy := httptest.NewServer(mux)
	t.Cleanup(flappy.Close)
	steady := fakeBackend(t)

	clock := newFixedClock()
	g := mustGate(t, Config{
		Backends:      []string{flappy.URL, steady.URL},
		Seed:          1,
		ProbeInterval: -1, // probes driven manually below
		MarkDownAfter: 2,
		Clock:         clock,
	})
	h := g.Handler()
	ctx := context.Background()

	// A run homed on the flapping b0, so a wrongful demotion would move
	// it.
	body := submitBody(homedSeeds(t, 2, 1)[0][0])
	rec := postRun(t, h, body, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	home := rec.Header().Get(BackendHeader)

	// One dropped probe: failure counted, replica NOT demoted.
	healthzFails.Store(1)
	g.ProbeAll(ctx)
	rep := g.Registry().All()[0]
	if !rep.Healthy() {
		t.Fatal("a single failed probe must not demote the replica (hysteresis)")
	}
	if rep.Fails() != 1 {
		t.Fatalf("fails = %d, want 1", rep.Fails())
	}
	if n := len(g.Registry().Healthy()); n != 2 {
		t.Fatalf("healthy replicas = %d, want 2", n)
	}
	// The candidate set is untouched: the same submission still routes
	// to its home replica.
	rec = postRun(t, h, body, nil)
	if got := rec.Header().Get(BackendHeader); got != home {
		t.Fatalf("single failed probe moved the run's home replica: %q -> %q", home, got)
	}

	// Two consecutive failures cross the threshold and demote.
	healthzFails.Store(2)
	clock.Advance(2 * time.Second) // past the post-failure probe backoff
	g.ProbeAll(ctx)
	clock.Advance(4 * time.Second)
	g.ProbeAll(ctx)
	if rep.Healthy() {
		t.Fatal("two consecutive failed probes must demote the replica")
	}

	// Recovery resets the streak.
	clock.Advance(time.Minute)
	g.ProbeAll(ctx)
	if !rep.Healthy() || rep.Fails() != 0 {
		t.Fatalf("want recovered replica, got healthy=%v fails=%d", rep.Healthy(), rep.Fails())
	}
}

// readBackend is a fake replica that holds at most one run, owned (""
// holds none): GET /v1/runs/{id}, DELETE and /profile answer 200 for
// that ID and the replica's own 404 body, naming it, for any other.
func readBackend(t *testing.T, name, owned string, asked *askLog) *httptest.Server {
	t.Helper()
	answer := func(body string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			asked.add(name)
			w.Header().Set("Content-Type", "application/json")
			if id := r.PathValue("id"); id != owned {
				w.WriteHeader(http.StatusNotFound)
				fmt.Fprintf(w, `{"error":"%s: unknown run %s"}`, name, id)
				return
			}
			fmt.Fprint(w, body)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /v1/runs/{id}", answer(`{"id":"r-owned","status":"done"}`))
	mux.HandleFunc("DELETE /v1/runs/{id}", answer(`{"id":"r-owned","status":"canceled"}`))
	mux.HandleFunc("GET /v1/runs/{id}/profile", answer(`{"runs":[]}`))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// askLog records, in order, the fake replicas that per-run reads
// reached. A nil log records nothing.
type askLog struct {
	mu    sync.Mutex
	names []string
}

func (l *askLog) add(name string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.names = append(l.names, name)
}

func (l *askLog) get() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.names...)
}

// TestReadFindsRunOnLaterReplica pins the read walk past the first
// candidate: a run held only by the second replica is found whether the
// first answers 404 or dies on the wire, and when nobody holds it a
// backend's own 404 body is relayed. The run's home is b0, so the
// owner is never tried first. Without a ledger record a run every
// replica would answer is read from its home alone, and a run the
// intake ledger routed to a backend other than its home is read from
// that backend alone.
func TestReadFindsRunOnLaterReplica(t *testing.T) {
	reads := []struct{ name, method, suffix, want string }{
		{"get", http.MethodGet, "", `"status":"done"`},
		{"delete", http.MethodDelete, "", `"status":"canceled"`},
		{"profile", http.MethodGet, "/profile", `"runs"`},
	}
	// The walk-past cases need a run homed on b0 of two replicas; the
	// home case needs its home among three to be neither b0 nor the
	// ledger case's recorded b0.
	id := "r-owned"
	for i := 1; home(id, testReplicas(t, 2)).Name != "b0" || home(id, testReplicas(t, 3)).Name != "b2"; i++ {
		id = fmt.Sprintf("r-owned-%d", i)
	}
	for _, rd := range reads {
		t.Run(rd.name, func(t *testing.T) {
			read := func(urls ...string) (*Gate, *httptest.ResponseRecorder) {
				g := mustGate(t, Config{
					Backends:      urls,
					Seed:          1,
					ProbeInterval: -1,
				})
				rec := httptest.NewRecorder()
				g.Handler().ServeHTTP(rec, httptest.NewRequest(rd.method, "/v1/runs/"+id+rd.suffix, nil))
				return g, rec
			}
			found := func(rec *httptest.ResponseRecorder) {
				t.Helper()
				if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), rd.want) {
					t.Fatalf("status %d body %s, want 200 with %s", rec.Code, rec.Body.String(), rd.want)
				}
				if got := rec.Header().Get(BackendHeader); got != "b1" {
					t.Fatalf("served by %q, want b1", got)
				}
			}

			// The primary answers 404 at once; b1 owns the run.
			_, rec := read(readBackend(t, "b0", "", nil).URL, readBackend(t, "b1", id, nil).URL)
			found(rec)

			// The primary's listener is closed: the transport error marks
			// it down and the walk goes on to b1.
			dead := readBackend(t, "b0", id, nil)
			dead.Close()
			g, rec := read(dead.URL, readBackend(t, "b1", id, nil).URL)
			found(rec)
			if g.Registry().All()[0].Healthy() {
				t.Fatal("b0 still healthy after a transport error")
			}

			// Nobody owns the run: a backend's own 404 body is relayed.
			_, rec = read(readBackend(t, "b0", "", nil).URL, readBackend(t, "b1", "", nil).URL)
			if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "unknown run "+id) {
				t.Fatalf("status %d body %s, want the backend's 404", rec.Code, rec.Body.String())
			}

			// Every replica holds the run and the gate has no ledger: the
			// run's home, b2, is asked first, and no other replica is.
			var askedHome askLog
			_, rec = read(
				readBackend(t, "b0", id, &askedHome).URL,
				readBackend(t, "b1", id, &askedHome).URL,
				readBackend(t, "b2", id, &askedHome).URL,
			)
			if rec.Code != http.StatusOK || rec.Header().Get(BackendHeader) != "b2" {
				t.Fatalf("status %d from %q, want 200 from the home b2", rec.Code, rec.Header().Get(BackendHeader))
			}
			if got := askedHome.get(); len(got) != 1 || got[0] != "b2" {
				t.Fatalf("replicas asked %v, want only the home b2", got)
			}

			// The ledger routed the run away from its home: the
			// recorded backend is asked first, and no other replica is.
			var asked askLog
			g = mustGate(t, Config{
				Backends: []string{
					readBackend(t, "b0", id, &asked).URL,
					readBackend(t, "b1", id, &asked).URL,
					readBackend(t, "b2", id, &asked).URL,
				},
				Seed:              1,
				ProbeInterval:     -1,
				DataDir:           t.TempDir(),
				ReconcileInterval: -1,
			})
			reps := g.Registry().All()
			recorded := reps[0]
			if home(id, reps) == recorded {
				recorded = reps[1]
			}
			if err := g.Ledger().Admitted(id, "table1", json.RawMessage(`{}`), "batch", 0); err != nil {
				t.Fatal(err)
			}
			if err := g.Ledger().Routed(id, recorded.Name); err != nil {
				t.Fatal(err)
			}
			rec = httptest.NewRecorder()
			g.Handler().ServeHTTP(rec, httptest.NewRequest(rd.method, "/v1/runs/"+id+rd.suffix, nil))
			if rec.Code != http.StatusOK || rec.Header().Get(BackendHeader) != recorded.Name {
				t.Fatalf("status %d from %q, want 200 from the recorded %s", rec.Code, rec.Header().Get(BackendHeader), recorded.Name)
			}
			if got := asked.get(); len(got) != 1 || got[0] != recorded.Name {
				t.Fatalf("replicas asked %v, want only the recorded %s", got, recorded.Name)
			}
		})
	}
}

// TestDeadlineExhaustedAtGate: the X-Piuma-Deadline-Ms budget is
// decremented while the gate holds the request; once spent, the gate
// answers 504 instead of burning another backend, and the first
// forward carries the full remaining budget upstream.
func TestDeadlineExhaustedAtGate(t *testing.T) {
	clock := newFixedClock()
	var sawBudget atomic.Value
	fail := &atomic.Bool{}
	fail.Store(true)
	burn := func(r *http.Request) {
		sawBudget.Store(r.Header.Get(serve.DeadlineHeader))
		clock.Advance(200 * time.Millisecond) // each attempt costs 200ms of budget
	}
	b0 := scriptedBackend(t, fail, burn)
	b1 := scriptedBackend(t, fail, burn)
	g := mustGate(t, Config{
		Backends:         []string{b0.URL, b1.URL},
		Seed:             1,
		ProbeInterval:    -1,
		Clock:            clock,
		BreakerThreshold: 10, // keep circuits out of this test's way
	})
	h := g.Handler()

	rec := postRun(t, h, submitBody(1), map[string]string{serve.DeadlineHeader: "150"})
	if rec.Code != http.StatusGatewayTimeout || !strings.Contains(rec.Body.String(), "deadline budget exhausted") {
		t.Fatalf("status %d body %s, want 504 budget exhausted", rec.Code, rec.Body.String())
	}
	if got := sawBudget.Load(); got != "150" {
		t.Fatalf("first forward carried budget %v, want the full 150", got)
	}
	m := metricsBody(t, h)
	if !strings.Contains(m, "piumagate_deadline_exhausted_total 1") {
		t.Errorf("metrics missing deadline exhaustion count:\n%s", m)
	}
}

// chaosClock adapts the gate tests' fixedClock to chaos.Clock, so the
// injector shares the gate's virtual timeline and injected sleeps
// advance it instead of blocking.
type chaosClock struct{ fc *fixedClock }

func (c chaosClock) Now() time.Time { return c.fc.Now() }
func (c chaosClock) Sleep(ctx context.Context, d time.Duration) bool {
	c.fc.Advance(d)
	return ctx.Err() == nil
}

// chaosSequence drives a fixed sequential submission stream through a
// fresh gate whose fan-out transport is wrapped in a fresh chaos
// injector, all on one virtual timeline, and returns the four
// determinism artifacts: the injector's fault log, the breaker
// transition log, the routing-decision log and the /metrics exposition.
func chaosSequence(t *testing.T, urls []string) (faults, transitions, decisions []byte, exposition string) {
	t.Helper()
	clock := newFixedClock()
	spec, err := chaos.Parse("seed=11;fault=5xx,target=b0,at=1s,for=2s,code=503;fault=reset,target=b1,at=4s,for=2s")
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(spec, chaosClock{clock})
	hc := chaos.WrapClient(serve.DefaultHTTPClient(), inj, chaos.Targets(urls))

	var decLog []Decision
	var moveLog []BreakerTransition
	g := mustGate(t, Config{
		Backends:      urls,
		Seed:          1,
		ProbeInterval: -1,
		Clock:         clock,
		HTTPClient:    hc,
		// High hysteresis on purpose: the 5xx window also fails health
		// probes, and the point of this harness is that the BREAKER (not
		// a registry mark-down) is what routes around the burning b0.
		MarkDownAfter:    5,
		BreakerThreshold: 2,
		OnDecision:       func(d Decision) { decLog = append(decLog, d) },
		OnBreaker:        func(bt BreakerTransition) { moveLog = append(moveLog, bt) },
	})
	h := g.Handler()
	ctx := context.Background()
	// Submissions alternate between runs homed on b0 and on b1, so both
	// fault windows meet traffic.
	homed := homedSeeds(t, 2, 3)
	for i := 0; i < 24; i++ {
		clock.Advance(500 * time.Millisecond)
		g.ProbeAll(ctx)
		rec := postRun(t, h, submitBody(homed[i%2][(i/2)%3]), nil)
		switch rec.Code {
		case http.StatusOK, http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("submit %d: unexpected status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	dj, err := json.Marshal(decLog)
	if err != nil {
		t.Fatal(err)
	}
	mj, err := json.Marshal(moveLog)
	if err != nil {
		t.Fatal(err)
	}
	return inj.LogJSON(), mj, dj, metricsBody(t, h)
}

// TestChaosDeterministicThroughGate is the chaos half of the gate's
// determinism contract: two in-process runs of the same seed, schedule
// and sequential request stream — gate, breakers, registry and injector
// all on the same virtual clock — produce byte-identical fault logs,
// breaker transition logs, decision logs and /metrics expositions. It
// also pins that the schedule actually bites: faults are injected and
// at least one circuit opens and later re-closes.
func TestChaosDeterministicThroughGate(t *testing.T) {
	urls := []string{scriptedBackend(t, nil, nil).URL, scriptedBackend(t, nil, nil).URL}
	f1, b1, d1, m1 := chaosSequence(t, urls)
	f2, b2, d2, m2 := chaosSequence(t, urls)
	if !bytes.Equal(f1, f2) {
		t.Errorf("fault logs differ:\n%s\nvs\n%s", f1, f2)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("breaker transition logs differ:\n%s\nvs\n%s", b1, b2)
	}
	if !bytes.Equal(d1, d2) {
		t.Errorf("decision logs differ:\n%s\nvs\n%s", d1, d2)
	}
	if m1 != m2 {
		t.Errorf("/metrics differ across identical chaos runs:\n%s\nvs\n%s", m1, m2)
	}

	if string(f1) == "[]" || string(f1) == "null" {
		t.Fatal("chaos schedule injected no faults")
	}
	var moves []BreakerTransition
	if err := json.Unmarshal(b1, &moves); err != nil {
		t.Fatal(err)
	}
	openAt, closedAfter := -1, false
	for i, m := range moves {
		if m.To == BreakerOpen && openAt < 0 {
			openAt = i
		}
		if openAt >= 0 && i > openAt && m.To == BreakerClosed {
			closedAfter = true
		}
	}
	if openAt < 0 {
		t.Fatalf("no breaker opened under the 5xx window; transitions: %s", b1)
	}
	if !closedAfter {
		t.Fatalf("no breaker recovered after its cooldown; transitions: %s", b1)
	}
}

// TestChaosClusterNoLostRuns is the end-to-end chaos invariant: a real
// two-replica serving cluster behind the gate, with scheduled resets on
// one replica and a 5xx burst on the other, driven by the open-loop
// workload engine — and every run the cluster ACCEPTED reaches a
// terminal state and stays resolvable through the gate. Failover and
// resubmission must not lose or duplicate accepted work (RunIDs are
// content addresses, so the worst case is a dedup hit).
func TestChaosClusterNoLostRuns(t *testing.T) {
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
	spec, err := chaos.Parse("seed=3;fault=reset,target=b1,at=0ms,for=600ms,rate=0.4;fault=5xx,target=b0,at=150ms,for=500ms,rate=0.4,code=500")
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(spec, nil)
	g := mustGate(t, Config{
		Backends:         urls,
		Seed:             1,
		ProbeInterval:    50 * time.Millisecond,
		ProbeTimeout:     time.Second,
		MarkDownAfter:    2,
		BreakerThreshold: 2,
		HTTPClient:       chaos.WrapClient(serve.DefaultHTTPClient(), inj, chaos.Targets(urls)),
	})
	gts := httptest.NewServer(g.Handler())
	t.Cleanup(gts.Close)
	client := serve.NewClient(gts.URL, nil)

	sc, err := workload.Parse("rate=60,duration=1s,seed=5;tenant=load,class=gold,experiment=table1,templates=3")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := workload.NewTraceWriter(&buf, sc)
	if err != nil {
		t.Fatal(err)
	}
	eng := &workload.Engine{
		Scenario:    sc,
		Client:      &workload.HTTPClient{C: client, Timeout: 15 * time.Second},
		MaxInFlight: 64,
		Trace:       tw,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := eng.Run(ctx); err != nil {
		t.Fatal(err)
	}

	tr, err := workload.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(map[string]bool)
	for _, r := range tr.Responses {
		if r.HTTPStatus != http.StatusOK && r.HTTPStatus != http.StatusAccepted {
			continue
		}
		if r.RunID == "" {
			t.Errorf("accepted response seq %d has no run ID", r.Seq)
			continue
		}
		if r.RunStatus != string(serve.StatusDone) {
			t.Errorf("accepted run %s (seq %d) not terminal-done: %q", r.RunID, r.Seq, r.RunStatus)
		}
		accepted[r.RunID] = true
	}
	if len(accepted) == 0 {
		t.Fatal("chaos ate every request; the invariant needs at least one accepted run")
	}
	// Every accepted run is still resolvable through the gate, done, and
	// served exactly once per content address.
	for id := range accepted {
		res, status, err := client.Run(ctx, id, false)
		if err != nil || status != http.StatusOK {
			t.Errorf("accepted run %s lost after the chaos window: status %d err %v", id, status, err)
			continue
		}
		if res.Status != serve.StatusDone {
			t.Errorf("accepted run %s resolved to %q, want done", id, res.Status)
		}
	}
}
