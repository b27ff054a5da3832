package serve_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"piumagcn/internal/bench"
	"piumagcn/internal/serve"
)

// panicExperiment panics with value v on every execution.
func panicExperiment(id string, v any) bench.Experiment {
	return bench.Experiment{
		ID:    id,
		Title: "test panicker",
		Run: func(ctx context.Context, o bench.Options) (*bench.Report, error) {
			panic(v)
		},
	}
}

// sweepExperiment simulates a multi-point sweep: each point checkpoints
// through the context, `block` (when non-nil) stalls the sweep between
// points until closed or the context dies, and fail makes the run fail
// after its first point.
func sweepExperiment(id string, points int, block <-chan struct{}, fail bool) bench.Experiment {
	return bench.Experiment{
		ID:    id,
		Title: "test sweep",
		Run: func(ctx context.Context, o bench.Options) (*bench.Report, error) {
			cp := bench.CheckpointFrom(ctx)
			for i := 0; i < points; i++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				label := fmt.Sprintf("%s point=%d", id, i)
				if _, done := cp.Lookup(label); done {
					continue
				}
				cp.Complete(label, i, fmt.Sprintf("value %d", i))
				if fail {
					return nil, errors.New("flaky backend")
				}
				if block != nil {
					select {
					case <-block:
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}
			}
			r := &bench.Report{ID: id, Title: "test sweep"}
			r.Add("sweep", fmt.Sprintf("%d points", points))
			return r, nil
		},
	}
}

// TestPanicBecomesFailedRun: a panicking experiment must surface as a
// failed run carrying the panic message, and the server must keep
// serving — the worker pool is not eroded (regression test: before the
// recover, each panic killed one worker goroutine until the pool was
// empty and runs queued forever).
func TestPanicBecomesFailedRun(t *testing.T) {
	var started atomic.Int64
	release := make(chan struct{})
	s := newTestServer(t, serve.Config{
		Workers: 1, // one worker: a single leaked panic would deadlock the follow-up run
		Experiments: []bench.Experiment{
			panicExperiment("boom", "sparse matrix went missing"),
			blockingExperiment("follow-up", &started, release),
		},
	})

	// Panic the lone worker several times; every run must still finish.
	for seed := int64(0); seed < 3; seed++ {
		o := bench.QuickOptions()
		o.Seed = seed
		v, cached, err := s.Submit("boom", o, false)
		if err != nil || cached {
			t.Fatalf("submit: cached=%v err=%v", cached, err)
		}
		got := waitStatus(t, s, v.ID, serve.StatusFailed)
		if !strings.Contains(got.Err, "experiment panicked") ||
			!strings.Contains(got.Err, "sparse matrix went missing") {
			t.Fatalf("failed run error %q missing panic message", got.Err)
		}
		if !strings.Contains(got.Err, "resilience_test.go") && !strings.Contains(got.Err, "goroutine") {
			t.Fatalf("failed run error carries no stack:\n%s", got.Err)
		}
	}

	// The pool must still drain new work.
	v, _, err := s.Submit("follow-up", bench.QuickOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	waitStatus(t, s, v.ID, serve.StatusDone)
	if started.Load() == 0 {
		t.Fatal("worker pool eroded: follow-up run never started")
	}
}

// TestTimeoutReportsDistinctStatusWithPartialReport: a run killed by
// RunTimeout mid-sweep must report the "timeout" terminal status (not
// "canceled") and carry a partial report of the checkpointed points.
func TestTimeoutReportsDistinctStatusWithPartialReport(t *testing.T) {
	block := make(chan struct{}) // never closed: the sweep stalls after point 0
	s := newTestServer(t, serve.Config{
		Workers:     1,
		RunTimeout:  30 * time.Millisecond,
		Experiments: []bench.Experiment{sweepExperiment("sweep", 4, block, false)},
	})
	v, _, err := s.Submit("sweep", bench.QuickOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	got := waitStatus(t, s, v.ID, serve.StatusTimeout)
	if !strings.Contains(got.Err, "timeout") {
		t.Fatalf("timeout run error = %q", got.Err)
	}
	out := reportText(t, got)
	if out == "" {
		t.Fatal("timed-out run has no partial report")
	}
	if !strings.Contains(out, "(partial)") || !strings.Contains(out, "sweep point=0") {
		t.Fatalf("partial report missing checkpointed point:\n%s", out)
	}
	// A timed-out record must be resubmittable, not served from cache.
	v2, cached, err := s.Submit("sweep", bench.QuickOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("timed-out run was served as a cache hit")
	}
	waitStatus(t, s, v2.ID, serve.StatusTimeout)
}

// TestUserCancelStaysCanceled: an explicit cancel during a sweep point
// must still report "canceled" — the timeout status is reserved for
// deadline kills — while keeping the partial report of completed points.
func TestUserCancelStaysCanceled(t *testing.T) {
	block := make(chan struct{})
	s := newTestServer(t, serve.Config{
		Workers:     1,
		RunTimeout:  time.Hour, // present but far away: cancel must win the classification
		Experiments: []bench.Experiment{sweepExperiment("sweep", 4, block, false)},
	})
	v, _, err := s.Submit("sweep", bench.QuickOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel only once the sweep has checkpointed point 0: a send on
	// block lands only where the sweep parks after a checkpoint.
	select {
	case block <- struct{}{}:
	case <-time.After(10 * time.Second):
		t.Fatal("sweep never parked after its first checkpoint")
	}
	if _, err := s.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	got := waitStatus(t, s, v.ID, serve.StatusCanceled)
	if !strings.Contains(reportText(t, got), "sweep point=0") {
		t.Fatal("canceled run lost its partial report")
	}
}

// TestCancelWhileQueued: canceling a run that never left the queue must
// terminate it as canceled with no report and must not wedge the worker
// that eventually pops it.
func TestCancelWhileQueued(t *testing.T) {
	var started atomic.Int64
	release := make(chan struct{})
	s := newTestServer(t, serve.Config{
		Workers: 1,
		Experiments: []bench.Experiment{
			blockingExperiment("blocker", &started, release),
			sweepExperiment("sweep", 2, nil, false),
		},
	})
	// Occupy the lone worker.
	bv, _, err := s.Submit("blocker", bench.QuickOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, bv.ID, serve.StatusRunning)
	// Queue a second run and cancel it before a worker picks it up.
	qv, _, err := s.Submit("sweep", bench.QuickOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(qv.ID); err != nil {
		t.Fatal(err)
	}
	got := waitStatus(t, s, qv.ID, serve.StatusCanceled)
	if got.ReportJSON != nil {
		t.Fatal("never-started run has a report")
	}
	// Release the worker; it must skip the canceled record and stay
	// available for fresh work.
	close(release)
	waitStatus(t, s, bv.ID, serve.StatusDone)
	fresh, _, err := s.Submit("sweep", bench.QuickOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, fresh.ID, serve.StatusDone)
}

// TestFailedRunExecutesOnce: an experiment error ends the run at once —
// the experiment is not re-executed — and the failed run keeps the
// partial report of the points it checkpointed.
func TestFailedRunExecutesOnce(t *testing.T) {
	var attempts atomic.Int64
	exp := bench.Experiment{
		ID:    "hard-fail",
		Title: "hard failure",
		Run: func(ctx context.Context, o bench.Options) (*bench.Report, error) {
			n := attempts.Add(1)
			bench.CheckpointFrom(ctx).Complete(fmt.Sprintf("attempt-%d", n), n, "partial work")
			return nil, errors.New("deterministic bug")
		},
	}
	s := newTestServer(t, serve.Config{Workers: 1, Experiments: []bench.Experiment{exp}})
	v, _, err := s.Submit("hard-fail", bench.QuickOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	got := waitStatus(t, s, v.ID, serve.StatusFailed)
	if attempts.Load() != 1 {
		t.Fatalf("failed run executed %d times, want 1", attempts.Load())
	}
	if !strings.Contains(reportText(t, got), "attempt-1") {
		t.Fatal("failed run lost its partial report")
	}
}

// TestTimeoutRunExposesTimeoutOnWire: the JSON resource for a timed-out
// run must carry the distinct status so clients can tell a deadline
// kill from a user cancel.
func TestTimeoutRunExposesTimeoutOnWire(t *testing.T) {
	block := make(chan struct{})
	s := newTestServer(t, serve.Config{
		Workers:     1,
		RunTimeout:  20 * time.Millisecond,
		Experiments: []bench.Experiment{sweepExperiment("sweep", 4, block, false)},
	})
	v, _, err := s.Submit("sweep", bench.QuickOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, v.ID, serve.StatusTimeout)
	w := doJSON(t, s.Handler(), "GET", "/v1/runs/"+v.ID, "")
	res := decodeRun(t, w)
	if res.Status != serve.StatusTimeout {
		t.Fatalf("wire status = %q, want %q", res.Status, serve.StatusTimeout)
	}
	if res.Report == nil {
		t.Fatal("wire resource missing the partial report")
	}
}
