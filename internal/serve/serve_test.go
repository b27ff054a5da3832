package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piumagcn/internal/bench"
	"piumagcn/internal/serve"
)

func newTestServer(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	s := serve.New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("cleanup shutdown: %v", err)
		}
	})
	return s
}

func doJSON(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeRun(t *testing.T, w *httptest.ResponseRecorder) serve.RunResource {
	t.Helper()
	var res serve.RunResource
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatalf("decoding run resource: %v\nbody: %s", err, w.Body.String())
	}
	return res
}

// reportMember returns the raw bytes of a run response's "report"
// member, exactly as they went over the wire (nil when absent).
func reportMember(t *testing.T, w *httptest.ResponseRecorder) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatalf("decoding run resource: %v\nbody: %s", err, w.Body.String())
	}
	return m["report"]
}

// reportText decodes a run's stored report and renders it as text ("" when
// the run has no report).
func reportText(t *testing.T, v serve.RunView) string {
	t.Helper()
	if v.ReportJSON == nil {
		return ""
	}
	var rep bench.Report
	if err := json.Unmarshal(v.ReportJSON, &rep); err != nil {
		t.Fatalf("decoding the report of run %s: %v", v.ID, err)
	}
	return rep.String()
}

// waitStatus polls until the run reaches want (or any terminal state if
// want is empty) and returns the final view.
func waitStatus(t *testing.T, s *serve.Server, id string, want serve.Status) serve.RunView {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := s.Get(id)
		if ok && v.Status == want {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	v, _ := s.Get(id)
	t.Fatalf("run %s never reached %q (last: %q err=%q)", id, want, v.Status, v.Err)
	return serve.RunView{}
}

// blockingExperiment runs until release is closed (or its context is
// canceled), so tests can hold a worker busy deterministically.
func blockingExperiment(id string, started *atomic.Int64, release <-chan struct{}) bench.Experiment {
	return bench.Experiment{
		ID:    id,
		Title: "test blocker",
		Run: func(ctx context.Context, o bench.Options) (*bench.Report, error) {
			if started != nil {
				started.Add(1)
			}
			select {
			case <-release:
				r := &bench.Report{ID: id, Title: "test blocker"}
				r.Add("section", "body")
				return r, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
}

func TestListExperiments(t *testing.T) {
	s := newTestServer(t, serve.Config{})
	w := doJSON(t, s.Handler(), "GET", "/v1/experiments", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", w.Code)
	}
	var got []serve.ExperimentResource
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	want := bench.ValidIDs()
	if len(got) != len(want) {
		t.Fatalf("listed %d experiments, registry has %d", len(got), len(want))
	}
	ids := map[string]bool{}
	for _, e := range got {
		ids[e.ID] = true
		if e.Title == "" || e.Description == "" {
			t.Errorf("experiment %s missing title/description", e.ID)
		}
	}
	for _, id := range want {
		if !ids[id] {
			t.Errorf("experiment %s not listed", id)
		}
	}
}

// TestSubmitPollCacheRoundTrip drives the acceptance path end to end
// against the real registry: submit a quick fig2 run, poll it to
// completion, and check that an identical resubmission is answered from
// the cache without re-running the experiment.
func TestSubmitPollCacheRoundTrip(t *testing.T) {
	s := newTestServer(t, serve.Config{Workers: 2})
	h := s.Handler()

	body := `{"experiment":"fig2","options":{"max_sim_edges":16384,"quick":true,"seed":7}}`
	w := doJSON(t, h, "POST", "/v1/runs", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202; body: %s", w.Code, w.Body.String())
	}
	res := decodeRun(t, w)
	if res.Status != serve.StatusQueued || res.ID == "" {
		t.Fatalf("fresh submission = %+v, want queued with an ID", res)
	}
	if res.ID != serve.RunID("fig2", bench.Options{MaxSimEdges: 16384, Quick: true, Seed: 7}) {
		t.Fatalf("run ID %s is not the content address", res.ID)
	}

	// Poll (?wait=true blocks until terminal).
	w = doJSON(t, h, "GET", "/v1/runs/"+res.ID+"?wait=true", "")
	if w.Code != http.StatusOK {
		t.Fatalf("poll status = %d; body: %s", w.Code, w.Body.String())
	}
	done := decodeRun(t, w)
	if done.Status != serve.StatusDone {
		t.Fatalf("run finished as %q (err %q), want done", done.Status, done.Error)
	}
	if done.Report == nil || len(done.Report.Sections) == 0 {
		t.Fatal("completed run carries no report sections")
	}
	if done.Report.ID != "fig2" {
		t.Fatalf("report ID = %q, want fig2", done.Report.ID)
	}

	// Identical resubmission: cache hit, no second execution.
	w = doJSON(t, h, "POST", "/v1/runs", body)
	if w.Code != http.StatusOK {
		t.Fatalf("resubmit status = %d, want 200; body: %s", w.Code, w.Body.String())
	}
	hit := decodeRun(t, w)
	if !hit.Cached || hit.Status != serve.StatusDone || hit.ID != res.ID {
		t.Fatalf("resubmission = %+v, want cached done run %s", hit, res.ID)
	}

	// The metrics endpoint must account for all of it.
	w = doJSON(t, h, "GET", "/metrics", "")
	metrics := w.Body.String()
	for _, want := range []string{
		"piumaserve_runs_submitted_total 1",
		"piumaserve_runs_completed_total 1",
		"piumaserve_cache_hits_total 1",
		`piumaserve_run_duration_seconds_count{experiment="fig2"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestSubmitDefaultsOmittedOptions(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := newTestServer(t, serve.Config{Experiments: []bench.Experiment{blockingExperiment("block", nil, release)}})
	w := doJSON(t, s.Handler(), "POST", "/v1/runs", `{"experiment":"block","options":{"quick":true}}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status = %d; body: %s", w.Code, w.Body.String())
	}
	res := decodeRun(t, w)
	def := bench.DefaultOptions()
	if res.Options.MaxSimEdges != def.MaxSimEdges || !res.Options.Quick || res.Options.Seed != def.Seed {
		t.Fatalf("options = %+v, want defaults with quick=true", res.Options)
	}
}

// TestSubmitNullOptionsUsesDefaults: an explicit "options": null used to
// overwrite the pre-seeded defaults pointer and panic the handler on the
// later dereference; it must behave like omitting the field entirely.
func TestSubmitNullOptionsUsesDefaults(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := newTestServer(t, serve.Config{Experiments: []bench.Experiment{blockingExperiment("block", nil, release)}})
	w := doJSON(t, s.Handler(), "POST", "/v1/runs", `{"experiment":"block","options":null}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status = %d, want 202; body: %s", w.Code, w.Body.String())
	}
	res := decodeRun(t, w)
	if res.Options != bench.DefaultOptions() {
		t.Fatalf("options = %+v, want defaults %+v", res.Options, bench.DefaultOptions())
	}
}

func TestUnknownExperimentIs404WithValidIDs(t *testing.T) {
	s := newTestServer(t, serve.Config{})
	w := doJSON(t, s.Handler(), "POST", "/v1/runs", `{"experiment":"nope"}`)
	if w.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", w.Code)
	}
	// The 404 body enumerates every valid ID, mirroring bench.ByID.
	for _, id := range bench.ValidIDs() {
		if !strings.Contains(w.Body.String(), id) {
			t.Errorf("404 body does not mention %q: %s", id, w.Body.String())
		}
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, serve.Config{})
	h := s.Handler()
	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed json", `{"experiment":`, http.StatusBadRequest},
		{"missing experiment", `{}`, http.StatusBadRequest},
		{"invalid options", `{"experiment":"fig2","options":{"max_sim_edges":-1}}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if w := doJSON(t, h, "POST", "/v1/runs", c.body); w.Code != c.want {
			t.Errorf("%s: status = %d, want %d (body %s)", c.name, w.Code, c.want, w.Body.String())
		}
	}
	if w := doJSON(t, h, "GET", "/v1/runs/r-doesnotexist", ""); w.Code != http.StatusNotFound {
		t.Errorf("unknown run: status = %d, want 404", w.Code)
	}
	if w := doJSON(t, h, "DELETE", "/v1/runs/r-doesnotexist", ""); w.Code != http.StatusNotFound {
		t.Errorf("cancel unknown run: status = %d, want 404", w.Code)
	}
}

// TestBackpressure fills the one-worker, depth-1 queue and checks the
// overflow submission is rejected with 429.
func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	var started atomic.Int64
	s := newTestServer(t, serve.Config{
		Workers:     1,
		QueueDepth:  1,
		Experiments: []bench.Experiment{blockingExperiment("block", &started, release)},
	})
	h := s.Handler()
	submit := func(seed int64) *httptest.ResponseRecorder {
		return doJSON(t, h, "POST", "/v1/runs", fmt.Sprintf(`{"experiment":"block","options":{"max_sim_edges":1,"seed":%d}}`, seed))
	}

	a := decodeRun(t, submit(1))
	waitStatus(t, s, a.ID, serve.StatusRunning) // worker is now occupied

	b := submit(2) // sits in the queue
	if b.Code != http.StatusAccepted {
		t.Fatalf("second submit status = %d, want 202", b.Code)
	}
	c := submit(3) // queue full
	if c.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status = %d, want 429; body: %s", c.Code, c.Body.String())
	}
	if got := c.Result().Header.Get("Retry-After"); got == "" {
		t.Error("429 response missing Retry-After")
	}

	// Resubmitting an already-queued run is NOT a new submission: it
	// dedups instead of consuming queue capacity.
	dup := submit(2)
	if dup.Code != http.StatusOK {
		t.Fatalf("duplicate of queued run: status = %d, want 200", dup.Code)
	}
	if res := decodeRun(t, dup); !res.Cached {
		t.Error("duplicate of queued run not marked as absorbed")
	}

	close(release)
	waitStatus(t, s, a.ID, serve.StatusDone)
	waitStatus(t, s, decodeRun(t, b).ID, serve.StatusDone)
	if got := started.Load(); got != 2 {
		t.Fatalf("experiment executed %d times, want 2", got)
	}
}

// TestDedupCollapsesConcurrentSubmissions asserts the singleflight
// property: N identical concurrent submissions execute the experiment
// exactly once and all observe the same run.
func TestDedupCollapsesConcurrentSubmissions(t *testing.T) {
	const n = 8
	release := make(chan struct{})
	var started atomic.Int64
	s := newTestServer(t, serve.Config{
		Workers:     2,
		QueueDepth:  n,
		Experiments: []bench.Experiment{blockingExperiment("count", &started, release)},
	})
	h := s.Handler()
	opts := bench.Options{MaxSimEdges: 1, Seed: 42}
	id := serve.RunID("count", opts)

	// Release the experiment only after every submission has landed, so
	// all n requests overlap one in-flight run.
	go func() {
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			if v, ok := s.Get(id); ok && v.Hits >= n-1 {
				close(release)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	results := make([]serve.RunResource, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := doJSON(t, h, "POST", "/v1/runs?wait=true",
				`{"experiment":"count","options":{"max_sim_edges":1,"seed":42}}`)
			if w.Code != http.StatusOK {
				t.Errorf("submission %d: status = %d: %s", i, w.Code, w.Body.String())
				return
			}
			results[i] = decodeRun(t, w)
		}(i)
	}
	wg.Wait()

	if got := started.Load(); got != 1 {
		t.Fatalf("experiment executed %d times for %d identical submissions, want 1", got, n)
	}
	for i, r := range results {
		if r.ID != id || r.Status != serve.StatusDone {
			t.Errorf("submission %d: got run %s status %q, want %s done", i, r.ID, r.Status, id)
		}
	}
	w := doJSON(t, h, "GET", "/metrics", "")
	if !strings.Contains(w.Body.String(), fmt.Sprintf("piumaserve_dedup_hits_total %d", n-1)) {
		t.Errorf("metrics missing %d dedup hits:\n%s", n-1, w.Body.String())
	}
}

// TestGracefulShutdown submits a blocking run plus a queued real quick
// run, then drains: the in-flight run must be canceled via its context,
// the queued run must never execute, and new submissions must get 503.
func TestGracefulShutdown(t *testing.T) {
	release := make(chan struct{}) // never closed: only ctx can end the run
	var started atomic.Int64
	exps := append([]bench.Experiment{blockingExperiment("block", &started, release)}, bench.All()...)
	s := serve.New(serve.Config{Workers: 1, QueueDepth: 4, Experiments: exps})
	h := s.Handler()

	blocker := decodeRun(t, doJSON(t, h, "POST", "/v1/runs", `{"experiment":"block","options":{"max_sim_edges":1}}`))
	waitStatus(t, s, blocker.ID, serve.StatusRunning)
	queued := decodeRun(t, doJSON(t, h, "POST", "/v1/runs", `{"experiment":"fig5","options":{"max_sim_edges":16384,"quick":true}}`))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}

	if v, _ := s.Get(blocker.ID); v.Status != serve.StatusCanceled {
		t.Errorf("in-flight run = %q, want canceled", v.Status)
	}
	if v, _ := s.Get(queued.ID); v.Status != serve.StatusCanceled {
		t.Errorf("queued run = %q, want canceled", v.Status)
	}
	if w := doJSON(t, h, "GET", "/healthz", ""); w.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz while drained: status = %d, want 503", w.Code)
	}
	if w := doJSON(t, h, "POST", "/v1/runs", `{"experiment":"block","options":{"max_sim_edges":2}}`); w.Code != http.StatusServiceUnavailable {
		t.Errorf("submit while drained: status = %d, want 503", w.Code)
	}
}

func TestCancelEndpoint(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, serve.Config{Workers: 1, Experiments: []bench.Experiment{blockingExperiment("block", nil, release)}})
	h := s.Handler()

	res := decodeRun(t, doJSON(t, h, "POST", "/v1/runs", `{"experiment":"block","options":{"max_sim_edges":1}}`))
	waitStatus(t, s, res.ID, serve.StatusRunning)
	if w := doJSON(t, h, "DELETE", "/v1/runs/"+res.ID, ""); w.Code != http.StatusOK {
		t.Fatalf("cancel status = %d", w.Code)
	}
	v := waitStatus(t, s, res.ID, serve.StatusCanceled)
	if v.Err == "" {
		t.Error("canceled run carries no error message")
	}

	// A fresh identical submission must re-run: cancellations are not cached.
	again := decodeRun(t, doJSON(t, h, "POST", "/v1/runs", `{"experiment":"block","options":{"max_sim_edges":1}}`))
	if again.Cached || again.Status != serve.StatusQueued {
		t.Fatalf("resubmission after cancel = %+v, want a fresh queued run", again)
	}
	close(release) // let the fresh run finish
	waitStatus(t, s, again.ID, serve.StatusDone)
}

// TestClientDisconnectCancelsAbandonedRun exercises the synchronous
// path over a real HTTP connection: when the only waiting client of a
// ?wait=true submission disconnects, the in-flight simulation is
// canceled.
func TestClientDisconnectCancelsAbandonedRun(t *testing.T) {
	release := make(chan struct{}) // never closed
	s := newTestServer(t, serve.Config{Workers: 1, Experiments: []bench.Experiment{blockingExperiment("block", nil, release)}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/runs?wait=true",
		strings.NewReader(`{"experiment":"block","options":{"max_sim_edges":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	id := serve.RunID("block", bench.Options{MaxSimEdges: 1, Quick: false, Seed: bench.DefaultOptions().Seed})
	waitStatus(t, s, id, serve.StatusRunning)
	cancel() // client walks away
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("client request error = %v, want context.Canceled", err)
	}
	waitStatus(t, s, id, serve.StatusCanceled)
}

func TestFailuresAreNotCached(t *testing.T) {
	var calls atomic.Int64
	failing := bench.Experiment{
		ID: "flaky",
		Run: func(ctx context.Context, o bench.Options) (*bench.Report, error) {
			if calls.Add(1) == 1 {
				return nil, errors.New("transient blow-up")
			}
			r := &bench.Report{ID: "flaky", Title: "recovered"}
			r.Add("s", "b")
			return r, nil
		},
	}
	s := newTestServer(t, serve.Config{Workers: 1, Experiments: []bench.Experiment{failing}})
	h := s.Handler()

	body := `{"experiment":"flaky","options":{"max_sim_edges":1}}`
	first := decodeRun(t, doJSON(t, h, "POST", "/v1/runs?wait=true", body))
	if first.Status != serve.StatusFailed || !strings.Contains(first.Error, "transient blow-up") {
		t.Fatalf("first run = %+v, want failed", first)
	}
	second := decodeRun(t, doJSON(t, h, "POST", "/v1/runs?wait=true", body))
	if second.Status != serve.StatusDone {
		t.Fatalf("second run = %+v, want done (failures must not be cached)", second)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("experiment called %d times, want 2", got)
	}
}

func TestCacheEviction(t *testing.T) {
	quick := bench.Experiment{
		ID: "quick",
		Run: func(ctx context.Context, o bench.Options) (*bench.Report, error) {
			r := &bench.Report{ID: "quick", Title: "t"}
			r.Add("s", "b")
			return r, nil
		},
	}
	s := newTestServer(t, serve.Config{Workers: 1, CacheCap: 2, Experiments: []bench.Experiment{quick}})
	h := s.Handler()

	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		res := decodeRun(t, doJSON(t, h, "POST", "/v1/runs?wait=true",
			fmt.Sprintf(`{"experiment":"quick","options":{"max_sim_edges":1,"seed":%d}}`, seed)))
		if res.Status != serve.StatusDone {
			t.Fatalf("seed %d: %+v", seed, res)
		}
		ids = append(ids, res.ID)
	}
	// Capacity 2: the first completion must have been evicted.
	if _, ok := s.Get(ids[0]); ok {
		t.Error("oldest run still cached beyond CacheCap")
	}
	for _, id := range ids[1:] {
		if _, ok := s.Get(id); !ok {
			t.Errorf("recent run %s evicted prematurely", id)
		}
	}
	w := doJSON(t, h, "GET", "/metrics", "")
	if !strings.Contains(w.Body.String(), "piumaserve_cache_evictions_total 1") {
		t.Errorf("metrics missing eviction count:\n%s", w.Body.String())
	}
}

func TestRunListing(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := newTestServer(t, serve.Config{Workers: 1, Experiments: []bench.Experiment{blockingExperiment("block", nil, release)}})
	h := s.Handler()
	res := decodeRun(t, doJSON(t, h, "POST", "/v1/runs", `{"experiment":"block","options":{"max_sim_edges":1}}`))

	w := doJSON(t, h, "GET", "/v1/runs", "")
	var list []serve.RunResource
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != res.ID {
		t.Fatalf("listing = %+v, want the one submitted run", list)
	}
	if list[0].Report != nil {
		t.Error("listing should omit report bodies")
	}
}

func TestRunIDIsContentAddressed(t *testing.T) {
	a := serve.RunID("fig5", bench.Options{MaxSimEdges: 1, Quick: true, Seed: 7})
	b := serve.RunID("fig5", bench.Options{MaxSimEdges: 1, Quick: true, Seed: 7})
	if a != b {
		t.Fatalf("identical submissions map to different IDs: %s vs %s", a, b)
	}
	variants := []string{
		serve.RunID("fig6", bench.Options{MaxSimEdges: 1, Quick: true, Seed: 7}),
		serve.RunID("fig5", bench.Options{MaxSimEdges: 2, Quick: true, Seed: 7}),
		serve.RunID("fig5", bench.Options{MaxSimEdges: 1, Quick: false, Seed: 7}),
		serve.RunID("fig5", bench.Options{MaxSimEdges: 1, Quick: true, Seed: 8}),
	}
	seen := map[string]bool{a: true}
	for _, v := range variants {
		if seen[v] {
			t.Fatalf("collision: %s", v)
		}
		seen[v] = true
	}
}

// TestRunIDCoversAllOptionFields perturbs every bench.Options field via
// reflection and requires the content address to change, so a future
// field can't silently be left out of the hash and alias distinct runs.
func TestRunIDCoversAllOptionFields(t *testing.T) {
	base := bench.DefaultOptions()
	baseID := serve.RunID("fig5", base)
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		o := base
		f := reflect.ValueOf(&o).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Float32, reflect.Float64:
			f.SetFloat(f.Float() + 1)
		default:
			t.Fatalf("Options field %s has kind %s: extend this test", rt.Field(i).Name, f.Kind())
		}
		if serve.RunID("fig5", o) == baseID {
			t.Errorf("field %s does not affect RunID", rt.Field(i).Name)
		}
	}
}

// pinnedClock is a frozen serve.Clock: every lifecycle timestamp a
// server stamps with it is exactly the pinned instant.
type pinnedClock struct{ t time.Time }

func (c pinnedClock) Now() time.Time { return c.t }

// TestInjectedClockStampsLifecycle is the regression test for the
// detertaint finding that run lifecycle timestamps were taken from the
// wall clock: with Config.Clock injected, Submitted/Started/Finished
// come from the injected clock, so journaled records and RunViews are
// reproducible between identical runs.
func TestInjectedClockStampsLifecycle(t *testing.T) {
	pin := time.Date(2026, 2, 3, 4, 5, 6, 0, time.UTC)
	release := make(chan struct{})
	close(release)
	s := newTestServer(t, serve.Config{
		Workers:     1,
		Experiments: []bench.Experiment{blockingExperiment("block", nil, release)},
		Clock:       pinnedClock{t: pin},
	})
	v, absorbed, err := s.Submit("block", bench.QuickOptions(), false)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if absorbed {
		t.Fatal("fresh submission reported as absorbed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := s.Wait(ctx, v.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.Status != serve.StatusDone {
		t.Fatalf("status = %s, want done", final.Status)
	}
	for name, got := range map[string]time.Time{
		"Submitted": final.Submitted,
		"Started":   final.Started,
		"Finished":  final.Finished,
	} {
		if !got.Equal(pin) {
			t.Errorf("%s = %v, want injected clock %v", name, got, pin)
		}
	}
}
