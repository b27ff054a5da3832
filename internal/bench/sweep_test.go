package bench

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"piumagcn/internal/piuma"
	"piumagcn/internal/sim"
)

// setGOMAXPROCS sets the sweep's worker count for one test.
func setGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// synthPoints returns n sweep points of mixed size: most are small
// enough to share the budget of the largest, some are as large.
func synthPoints(n int) []point {
	cores := []int{1, 2, 1, 8, 1, 4, 2, 1}
	pts := make([]point, n)
	for i := range pts {
		cfg := piuma.DefaultConfig()
		cfg.Cores = cores[i%len(cores)]
		pts[i] = point{label: fmt.Sprintf("p%02d", i), cfg: cfg}
	}
	return pts
}

// echo summarizes a synthetic result, the point's label, as itself.
func echo(s string) string { return s }

// checkpointLabels returns the labels cp holds, in checkpoint order.
func checkpointLabels(cp *Checkpoint) []string {
	var out []string
	for _, p := range cp.Points() {
		out = append(out, p.Label)
	}
	return out
}

func pointLabels(pts []point) []string {
	var out []string
	for _, p := range pts {
		out = append(out, p.label)
	}
	return out
}

// TestSweepFirstErrorByIndex: when points fail, sweep returns the error
// of the lowest failing index and commits exactly the points before it,
// in sweep order — however the worker count lets later points overtake.
func TestSweepFirstErrorByIndex(t *testing.T) {
	pts := synthPoints(16)
	for _, procs := range []int{1, 2, 4} {
		for _, fail := range []int{0, 1, 3, 7, 15} {
			t.Run(fmt.Sprintf("procs=%d/fail=%d", procs, fail), func(t *testing.T) {
				setGOMAXPROCS(t, procs)
				cp := NewCheckpoint()
				run := func(p point, _ sim.Tracer) (string, error) {
					runtime.Gosched()
					// Every point from the failing one on fails, so a
					// later failure can land first.
					var i int
					fmt.Sscanf(p.label, "p%d", &i)
					if i >= fail {
						return "", fmt.Errorf("point %d failed", i)
					}
					return p.label, nil
				}
				res, err := sweep(WithCheckpoint(context.Background(), cp), pts, run, echo)
				if want := fmt.Sprintf("point %d failed", fail); err == nil || err.Error() != want {
					t.Fatalf("err = %v, want %q", err, want)
				}
				if res != nil {
					t.Fatalf("failed sweep returned results %v", res)
				}
				if got, want := checkpointLabels(cp), pointLabels(pts[:fail]); !reflect.DeepEqual(got, want) {
					t.Fatalf("checkpoint = %v, want %v", got, want)
				}
			})
		}
	}
}

// TestSweepReraisesPanic: a panic in one point comes out of sweep on
// the caller's goroutine after the points before it are committed.
func TestSweepReraisesPanic(t *testing.T) {
	setGOMAXPROCS(t, 4)
	pts := synthPoints(8)
	cp := NewCheckpoint()
	run := func(p point, _ sim.Tracer) (string, error) {
		if p.label == "p05" {
			panic("boom")
		}
		return p.label, nil
	}
	defer func() {
		if v := recover(); v != "boom" {
			t.Fatalf("recovered %v, want the point's panic", v)
		}
		if got, want := checkpointLabels(cp), pointLabels(pts[:5]); !reflect.DeepEqual(got, want) {
			t.Fatalf("checkpoint = %v, want %v", got, want)
		}
	}()
	sweep(WithCheckpoint(context.Background(), cp), pts, run, echo)
	t.Fatal("sweep returned after a point panicked")
}

// TestSweepProcessBudget: the points in flight never hold more worker
// threads than the largest point of the sweep, results come back in
// sweep order, and small points do run side by side.
func TestSweepProcessBudget(t *testing.T) {
	setGOMAXPROCS(t, 4)
	pts := synthPoints(64)
	budget := 0
	for _, p := range pts {
		budget = max(budget, p.cfg.WorkerThreads())
	}
	var inflight, peak atomic.Int64
	run := func(p point, _ sim.Tracer) (string, error) {
		w := int64(p.cfg.WorkerThreads())
		now := inflight.Add(w)
		for {
			old := peak.Load()
			if now <= old || peak.CompareAndSwap(old, now) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		inflight.Add(-w)
		return p.label, nil
	}
	res, err := sweep(context.Background(), pts, run, echo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, pointLabels(pts)) {
		t.Fatalf("results out of sweep order: %v", res)
	}
	if p := peak.Load(); p > int64(budget) {
		t.Fatalf("peak in-flight worker threads %d exceed the sweep's largest point (%d)", p, budget)
	}

	// Two small points before a large one must overlap: each waits for
	// the other to start, which a serial sweep would never allow.
	small, large := piuma.DefaultConfig(), piuma.DefaultConfig()
	small.Cores, large.Cores = 1, 2
	pair := []point{{label: "a", cfg: small}, {label: "b", cfg: small}, {label: "c", cfg: large}}
	var arrived atomic.Int32
	both := make(chan struct{})
	rendezvous := func(p point, _ sim.Tracer) (string, error) {
		if p.label == "c" {
			return p.label, nil
		}
		if arrived.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
			return p.label, nil
		case <-time.After(10 * time.Second):
			return "", errors.New("small points never ran side by side")
		}
	}
	if _, err := sweep(context.Background(), pair, rendezvous, echo); err != nil {
		t.Fatal(err)
	}
}

// TestSweepCancelAndResume: a sweep canceled mid-way checkpoints a
// contiguous prefix of its points in sweep order; resuming from that
// checkpoint reuses every one of them and renders the report of an
// uninterrupted run byte for byte.
func TestSweepCancelAndResume(t *testing.T) {
	setGOMAXPROCS(t, 4)
	e, err := ByID("fig7")
	if err != nil {
		t.Fatal(err)
	}
	o := QuickOptions()
	full := NewCheckpoint()
	baseline, err := e.Run(WithCheckpoint(context.Background(), full), o)
	if err != nil {
		t.Fatal(err)
	}
	order := checkpointLabels(full)

	const cancelAfter = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cp := NewCheckpoint()
	var seen int
	cp.SetObserver(func(Point) {
		if seen++; seen == cancelAfter {
			cancel()
		}
	})
	if _, err := e.Run(WithCheckpoint(ctx, cp), o); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep returned %v", err)
	}
	prefix := checkpointLabels(cp)
	if len(prefix) < cancelAfter || len(prefix) >= len(order) {
		t.Fatalf("canceled sweep checkpointed %d of %d points", len(prefix), len(order))
	}
	if !reflect.DeepEqual(prefix, order[:len(prefix)]) {
		t.Fatalf("checkpoint %v is not a prefix of the sweep %v", prefix, order)
	}

	resumed := NewCheckpoint()
	resumed.Restore(cp.Points())
	got, err := e.Run(WithCheckpoint(context.Background(), resumed), o)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Reused() != len(prefix) {
		t.Fatalf("resume reused %d points, want %d", resumed.Reused(), len(prefix))
	}
	if !reflect.DeepEqual(checkpointLabels(resumed), order) {
		t.Fatalf("resumed checkpoint order %v, want %v", checkpointLabels(resumed), order)
	}
	if got.String() != baseline.String() {
		t.Fatalf("resumed report differs:\n--- baseline ---\n%s\n--- resumed ---\n%s", baseline, got)
	}
}
