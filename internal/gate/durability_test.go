package gate

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"piumagcn/internal/bench"
	"piumagcn/internal/serve"
)

// statefulBackend is a fake replica with real run state: submissions
// are stored under the same content-addressed RunID the gate computes,
// GET /v1/runs enumerates them, DELETE removes them — enough surface
// for the anti-entropy reconciler to diff against.
type statefulBackend struct {
	ts *httptest.Server

	mu   sync.Mutex
	runs map[string]string // run ID → status
}

func newStatefulBackend(t *testing.T) *statefulBackend {
	t.Helper()
	b := &statefulBackend{runs: make(map[string]string)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		defaults := bench.DefaultOptions()
		var req struct {
			Experiment string         `json:"experiment"`
			Options    *bench.Options `json:"options"`
		}
		req.Options = &defaults
		if err := json.Unmarshal(body, &req); err != nil || req.Experiment == "" {
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprint(w, `{"error":"bad submission"}`)
			return
		}
		if req.Experiment == "bogus" {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"unknown experiment"}`)
			return
		}
		if req.Options == nil {
			req.Options = &defaults
		}
		id := serve.RunID(req.Experiment, *req.Options)
		b.mu.Lock()
		if _, ok := b.runs[id]; !ok {
			b.runs[id] = string(serve.StatusQueued)
		}
		status := b.runs[id]
		b.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q,"experiment":%q,"status":%q}`, id, req.Experiment, status)
	})
	mux.HandleFunc("GET /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		b.mu.Lock()
		out := make([]serve.RunResource, 0, len(b.runs))
		for id, status := range b.runs {
			out = append(out, serve.RunResource{ID: id, Status: serve.Status(status)})
		}
		b.mu.Unlock()
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("DELETE /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		b.mu.Lock()
		delete(b.runs, r.PathValue("id"))
		b.mu.Unlock()
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{}`)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "piumaserve_queue_depth 0\n")
	})
	b.ts = httptest.NewServer(mux)
	t.Cleanup(b.ts.Close)
	return b
}

// setAll moves every held run to status.
func (b *statefulBackend) setAll(status string) {
	b.mu.Lock()
	for id := range b.runs {
		b.runs[id] = status
	}
	b.mu.Unlock()
}

func (b *statefulBackend) holds(id string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.runs[id]
	return ok
}

func (b *statefulBackend) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.runs)
}

// TestLedgerJournalsSubmissions pins the intake ledger's submit-path
// contract: an accepted run lands in the ledger routed to its backend,
// a refused run settles as a rejected terminal, and neither outcome is
// invented — the ledger only ever reflects what the client was told.
func TestLedgerJournalsSubmissions(t *testing.T) {
	b := newStatefulBackend(t)
	g := mustGate(t, Config{
		Backends:      []string{b.ts.URL},
		Seed:          1,
		ProbeInterval: -1,
		Clock:         newFixedClock(),
		DataDir:       t.TempDir(),
	})
	h := g.Handler()

	if rec := postRun(t, h, submitBody(0), nil); rec.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := postRun(t, h, `{"experiment":"bogus"}`, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("bogus submit: status %d: %s", rec.Code, rec.Body.String())
	}

	ledger := g.Ledger()
	if ledger.Len() != 2 {
		t.Fatalf("ledger holds %d runs, want 2", ledger.Len())
	}
	if ledger.NonTerminalLen() != 1 {
		t.Fatalf("ledger holds %d non-terminal runs, want 1 (the rejected run must be terminal)", ledger.NonTerminalLen())
	}
	open := ledger.NonTerminal()
	if open[0].Backend != "b0" {
		t.Fatalf("accepted run routed to %q, want b0", open[0].Backend)
	}
	if !b.holds(open[0].RunID) {
		t.Fatalf("backend does not hold the journaled run %s", open[0].RunID)
	}
}

// TestReconcilerRehomesOrphanedRuns is the permanent-loss invariant: a
// replica that dies for good and never restarts must not take its
// accepted runs with it. The reconciler re-homes the orphan to a live
// replica (exactly one copy — the content address deduplicates) and
// later observes every run terminal, draining the ledger.
func TestReconcilerRehomesOrphanedRuns(t *testing.T) {
	backends := []*statefulBackend{newStatefulBackend(t), newStatefulBackend(t), newStatefulBackend(t)}
	clock := newFixedClock()
	var decisions []ReconcileDecision
	g := mustGate(t, Config{
		Backends:          []string{backends[0].ts.URL, backends[1].ts.URL, backends[2].ts.URL},
		Seed:              1,
		ProbeInterval:     -1,
		ReconcileInterval: -1,
		Clock:             clock,
		DataDir:           t.TempDir(),
		OnReconcile:       func(d ReconcileDecision) { decisions = append(decisions, d) },
	})
	h := g.Handler()

	// Three distinct runs, one homed on each replica.
	homed := homedSeeds(t, 3, 1)
	for i := 0; i < 3; i++ {
		if rec := postRun(t, h, submitBody(homed[i][0]), nil); rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	victim := backends[1]
	victimRep := g.Registry().All()[1]
	var orphan string
	for _, run := range g.Ledger().NonTerminal() {
		if run.Backend == "b1" {
			orphan = run.RunID
		}
	}
	if orphan == "" || !victim.holds(orphan) {
		t.Fatalf("no run routed to b1 (ledger: %+v)", g.Ledger().NonTerminal())
	}

	// Permanent loss: the process dies and never comes back. The gate
	// notices via a transport error (probe-driven demotion is exercised
	// in the determinism test below).
	victim.ts.Close()
	g.reg.observe(victimRep, transportError)

	if n := g.ReconcileOnce(context.Background()); n != 1 {
		t.Fatalf("first sweep mutated %d runs, want 1 (the orphan)", n)
	}
	run, ok := g.Ledger().Run(orphan)
	if !ok || run.Backend == "b1" || run.Backend == "" {
		t.Fatalf("orphan not re-homed: %+v", run)
	}
	reps := g.Registry().All()
	if want := home(orphan, []*Replica{reps[0], reps[2]}).Name; run.Backend != want {
		t.Fatalf("orphan re-homed to %s, want its home among the survivors, %s", run.Backend, want)
	}
	if run.Rehomed != 1 {
		t.Fatalf("orphan re-home count = %d, want 1", run.Rehomed)
	}
	// Exactly one live copy across the surviving replicas.
	copies := 0
	for _, b := range []*statefulBackend{backends[0], backends[2]} {
		if b.holds(orphan) {
			copies++
		}
	}
	if copies != 1 {
		t.Fatalf("orphan has %d live copies, want exactly 1", copies)
	}

	// The surviving replicas finish their work; the next sweep observes
	// every run terminal and the ledger drains.
	backends[0].setAll(string(serve.StatusDone))
	backends[2].setAll(string(serve.StatusDone))
	if n := g.ReconcileOnce(context.Background()); n != 0 {
		t.Fatalf("second sweep mutated %d runs, want 0", n)
	}
	if open := g.Ledger().NonTerminalLen(); open != 0 {
		t.Fatalf("ledger still holds %d open runs after completion, want 0", open)
	}
	terminals := 0
	for _, d := range decisions {
		if d.Action == ReconcileTerminal {
			terminals++
			if d.Status != string(serve.StatusDone) {
				t.Fatalf("terminal decision with status %q, want done", d.Status)
			}
		}
	}
	if terminals != 3 {
		t.Fatalf("observed %d terminal decisions, want 3 (log: %+v)", terminals, decisions)
	}
}

// TestGateRestartReplaysAdmission is the restart-amnesia fix: a gate
// rebuilt over the same data directory re-derives its admission-bucket
// fill from the journaled intake, so a burst admitted just before a
// crash is not admitted again right after boot.
func TestGateRestartReplaysAdmission(t *testing.T) {
	b := newStatefulBackend(t)
	dir := t.TempDir()
	clock := newFixedClock()
	cfg := Config{
		Backends:      []string{b.ts.URL},
		Seed:          1,
		ProbeInterval: -1,
		Clock:         clock,
		DataDir:       dir,
		Rate:          1,
		Burst:         2,
	}
	g1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := g1.Handler()
	for i := 0; i < 2; i++ {
		if rec := postRun(t, h, submitBody(i), nil); rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	if rec := postRun(t, h, submitBody(2), nil); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("third submit: status %d, want 429", rec.Code)
	}
	g1.Shutdown()

	// Restart at the same virtual instant. Without replay the rebuilt
	// buckets would start full and re-admit the burst.
	g2 := mustGate(t, cfg)
	if got := g2.Ledger().NonTerminalLen(); got != 2 {
		t.Fatalf("replayed ledger holds %d open runs, want 2", got)
	}
	if rec := postRun(t, g2.Handler(), submitBody(3), nil); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("post-restart submit: status %d, want 429 (admission fill must survive restart)", rec.Code)
	}

	// One virtual second refills one token; the same submission then
	// passes — the replayed bucket behaves exactly like the original.
	clock.Advance(time.Second)
	if rec := postRun(t, g2.Handler(), submitBody(3), nil); rec.Code != http.StatusAccepted {
		t.Fatalf("post-refill submit: status %d, want 202", rec.Code)
	}
}

// durabilityScenario drives a full cluster-durability episode under an
// injected clock and fixed seeds: one replica dies permanently, the
// gate's probe rounds demote it, the reconciler re-homes the orphan,
// and the survivors finish the work. It returns the reconcile-decision
// log and the final /metrics exposition for byte comparison.
func durabilityScenario(t *testing.T) (decisions, exposition []byte) {
	t.Helper()
	backends := []*statefulBackend{newStatefulBackend(t), newStatefulBackend(t), newStatefulBackend(t)}
	urls := []string{backends[0].ts.URL, backends[1].ts.URL, backends[2].ts.URL}
	clock := newFixedClock()

	var rcs []ReconcileDecision
	g := mustGate(t, Config{
		Backends:          urls,
		Seed:              5,
		ProbeInterval:     -1,
		MarkDownAfter:     2,
		ReconcileInterval: -1,
		Clock:             clock,
		DataDir:           t.TempDir(),
		OnReconcile:       func(d ReconcileDecision) { rcs = append(rcs, d) },
	})
	h := g.Handler()
	ctx := context.Background()

	// Four distinct runs homed on b0, b1, b2 and b0: exactly one is
	// b2's.
	classes := []string{"gold", "silver", "batch", "gold"}
	homed := homedSeeds(t, 3, 2)
	for i := 0; i < 4; i++ {
		rec := postRun(t, h, submitBody(homed[i%3][i/3]), map[string]string{serve.SLOClassHeader: classes[i]})
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}

	// Steady state: a few probe rounds with everyone passing.
	b2 := g.Registry().All()[2]
	for i := 0; i < 3; i++ {
		g.ProbeAll(ctx)
		clock.Advance(time.Second)
	}
	if !b2.Healthy() {
		t.Fatal("b2 demoted while it answered every probe")
	}
	// b2 dies for good (kill -9, never restarted). One virtual second
	// per round covers the first failure's backoff, so the second
	// round's probe is due and MarkDownAfter=2 demotes b2 there.
	backends[2].ts.Close()
	for i := 1; i <= 2; i++ {
		g.ProbeAll(ctx)
		clock.Advance(time.Second)
		if up := b2.Healthy(); up != (i < 2) {
			t.Fatalf("after %d failed probe rounds: b2 healthy=%v, want %v", i, up, i < 2)
		}
	}

	// Anti-entropy: the orphan re-homes, the survivors finish, the
	// ledger drains.
	g.ReconcileOnce(ctx)
	backends[0].setAll(string(serve.StatusDone))
	backends[1].setAll(string(serve.StatusDone))
	g.ReconcileOnce(ctx)
	if open := g.Ledger().NonTerminalLen(); open != 0 {
		t.Fatalf("ledger still holds %d open runs, want 0 (decisions: %+v)", open, rcs)
	}
	total := backends[0].count() + backends[1].count()
	if total != 4 {
		t.Fatalf("survivors hold %d runs, want all 4 exactly once", total)
	}

	dj, err := json.Marshal(rcs)
	if err != nil {
		t.Fatal(err)
	}
	return dj, []byte(metricsBody(t, h))
}

// TestClusterDurabilityDeterministic is the cluster-durability
// determinism contract: the same scripted episode — submissions, a
// permanent replica death, probe-driven demotion, re-homing, completion
// — replayed under the same seeds and injected clock produces a
// byte-identical reconcile-decision log and byte-identical gate
// /metrics.
func TestClusterDurabilityDeterministic(t *testing.T) {
	d1, x1 := durabilityScenario(t)
	d2, x2 := durabilityScenario(t)
	if string(d1) != string(d2) {
		t.Errorf("reconcile logs differ:\n%s\nvs\n%s", d1, d2)
	}
	if string(x1) != string(x2) {
		t.Errorf("/metrics differ across identical episodes:\n%s\nvs\n%s", x1, x2)
	}
	var rcs []ReconcileDecision
	if err := json.Unmarshal(d1, &rcs); err != nil {
		t.Fatal(err)
	}
	// The episode must actually exercise re-homing: b2's orphan moves
	// to a survivor.
	rehomed := 0
	for _, d := range rcs {
		if d.Action == ReconcileRehome {
			rehomed++
			if d.Backend == "b2" {
				t.Fatalf("orphan re-homed onto the dead b2: %+v", d)
			}
		}
	}
	if rehomed != 1 {
		t.Fatalf("%d rehome decisions, want 1 (log: %s)", rehomed, d1)
	}
	if !strings.Contains(string(x1), `piumagate_backend_probe_failures_total{backend="b2"} 2`) {
		t.Fatalf("/metrics does not count b2's two failed probes:\n%s", x1)
	}
}
