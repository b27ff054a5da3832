package serve_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"piumagcn/internal/bench"
	"piumagcn/internal/serve"
)

// TestDeadlineBudgetTimesOutRun: a submission carrying an
// X-Piuma-Deadline-Ms budget must be bounded by it even with no
// RunTimeout configured — the run is killed when the budget expires and
// reports the distinct "timeout" status with a partial report of the
// checkpointed points, exactly like a RunTimeout kill.
func TestDeadlineBudgetTimesOutRun(t *testing.T) {
	block := make(chan struct{}) // never closed: the sweep stalls after point 0
	s := newTestServer(t, serve.Config{
		Workers:     1,
		Experiments: []bench.Experiment{sweepExperiment("sweep", 4, block, false)},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	body := `{"experiment":"sweep","options":{"quick":true,"max_sim_edges":1024}}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs?wait=true", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.DeadlineHeader, "200")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var res serve.RunResource
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Status != serve.StatusTimeout {
		t.Fatalf("status = %q, want %q (budget-killed run must report the distinct timeout status)", res.Status, serve.StatusTimeout)
	}
	if res.Report == nil {
		t.Fatal("budget-killed run has no partial report")
	}
	if res.CheckpointPoints < 1 {
		t.Fatalf("checkpoint points = %d, want the pre-stall point preserved", res.CheckpointPoints)
	}
}

// TestDeadlineBudgetBeatsWaiterAbandon: when the waiting client gives
// up (waitBudgeted's grace elapses) between the budget deadline firing
// and the kill landing at the experiment's next cancellation check,
// the run must still report "timeout", not "canceled" — context errors
// are sticky, so the deadline having fired first is knowable even
// though the abandon also canceled the run's context.
func TestDeadlineBudgetBeatsWaiterAbandon(t *testing.T) {
	slow := bench.Experiment{
		ID:    "slowcancel",
		Title: "ignores cancellation for a while",
		Run: func(ctx context.Context, o bench.Options) (*bench.Report, error) {
			// Deliberately deaf to ctx past the 50ms waiter grace: the
			// budget expires, the waiter abandons, THEN the kill lands.
			time.Sleep(400 * time.Millisecond)
			return nil, ctx.Err()
		},
	}
	s := newTestServer(t, serve.Config{Workers: 1, Experiments: []bench.Experiment{slow}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	body := `{"experiment":"slowcancel","options":{"quick":true,"max_sim_edges":1024}}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs?wait=true", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.DeadlineHeader, "100")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var snap serve.RunResource
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The snapshot answered mid-kill; poll until the run is terminal.
	client := serve.NewClient(ts.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	deadline := time.After(5 * time.Second)
	for {
		res, status, err := client.Run(ctx, snap.ID, false)
		if err != nil || status != http.StatusOK {
			t.Fatalf("poll: status %d err %v", status, err)
		}
		if res.Status == serve.StatusTimeout {
			break
		}
		if res.Status != serve.StatusQueued && res.Status != serve.StatusRunning {
			t.Fatalf("status = %q, want %q (budget fired before the abandon)", res.Status, serve.StatusTimeout)
		}
		select {
		case <-deadline:
			t.Fatalf("run never terminal; last status %q", res.Status)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestDeadlineBudgetIgnoredWhenAbsent: without the header a run with no
// RunTimeout is unbounded (regression guard for the budget plumbing).
func TestDeadlineBudgetIgnoredWhenAbsent(t *testing.T) {
	s := newTestServer(t, serve.Config{
		Workers:     1,
		Experiments: []bench.Experiment{sweepExperiment("sweep", 2, nil, false)},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	client := serve.NewClient(ts.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	res, status, err := client.SubmitAndWait(ctx, "sweep", bench.QuickOptions(), "")
	if err != nil || status != http.StatusOK || res.Status != serve.StatusDone {
		t.Fatalf("status %d run %q err %v", status, res.Status, err)
	}
}

// TestSubmitAndWaitRidesThroughRestart: when the POST dies on the wire
// (replica restarting), SubmitAndWait polls the content-addressed run
// ID instead of blindly re-submitting; the poll itself retries through
// transient transport errors. The run lands exactly once.
func TestSubmitAndWaitRidesThroughRestart(t *testing.T) {
	o := bench.QuickOptions()
	o.Seed = 42
	id := serve.RunID("table1", o)

	var posts, gets atomic.Int64
	kill := func(w http.ResponseWriter) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Fatal("recorder does not support hijack")
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		kill(w) // the submission dies mid-flight, outcome unknown
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if gets.Add(1) == 1 {
			kill(w) // first poll hits the restart window
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"` + id + `","experiment":"table1","status":"done"}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	client := serve.NewClient(ts.URL, nil)
	client.SetRetries(3, time.Millisecond, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	res, status, _, err := client.SubmitAndWaitInfo(ctx, "table1", o, "gold")
	if err != nil || status != http.StatusOK {
		t.Fatalf("status %d err %v", status, err)
	}
	if res.ID != id || res.Status != serve.StatusDone {
		t.Fatalf("res = %+v, want run %s done", res, id)
	}
	if posts.Load() != 1 {
		t.Fatalf("POST issued %d times; the poll must resolve the dead submission without re-POSTing", posts.Load())
	}
	if gets.Load() != 2 {
		t.Fatalf("GET issued %d times, want 2 (one transient failure, one retry)", gets.Load())
	}
}
