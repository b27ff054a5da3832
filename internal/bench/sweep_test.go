package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piumagcn/internal/faults"
	"piumagcn/internal/graph"
	"piumagcn/internal/obs"
	"piumagcn/internal/piuma"
	"piumagcn/internal/piuma/kernels"
	"piumagcn/internal/sim"
)

// setGOMAXPROCS sets the sweep's worker count for one test.
func setGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// synthPoints returns n sweep points of mixed size: most are small
// enough to share the budget of the largest, some are as large. Each
// has its own K, so no two share content and every one is run.
func synthPoints(n int) []point {
	cores := []int{1, 2, 1, 8, 1, 4, 2, 1}
	pts := make([]point, n)
	for i := range pts {
		cfg := piuma.DefaultConfig()
		cfg.Cores = cores[i%len(cores)]
		pts[i] = point{label: fmt.Sprintf("p%02d", i), cfg: cfg, k: i}
	}
	return pts
}

// countSimulations makes the kernel sweeps count the points they
// simulate, until the test ends.
func countSimulations(tb testing.TB) *atomic.Int64 {
	var n atomic.Int64
	simulate := runKernel
	tb.Cleanup(func() { runKernel = simulate })
	runKernel = func(kind kernels.Kind, cfg piuma.Config, fs *faults.Spec, g *graph.CSR, k int, tr sim.Tracer) (kernels.Result, error) {
		n.Add(1)
		return simulate(kind, cfg, fs, g, k, tr)
	}
	return &n
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
	pair := []point{{label: "a", cfg: small, k: 1}, {label: "b", cfg: small, k: 2}, {label: "c", cfg: large, k: 3}}
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

// TestSweepReusesDuplicatePoints: points of equal content are run once.
// A repeat is committed in sweep order under its own label, summary and
// observer call, and its profiler run carries its twin's activity under
// its own label. A twin restored from the checkpoint is simulated, not
// reused, and a failing first occurrence commits nothing after it.
func TestSweepReusesDuplicatePoints(t *testing.T) {
	// Points are told apart by K alone; the largest leaves the others
	// room to run side by side.
	ks := []int{1, 2, 1, 3, 2, 1, 4}
	pts := make([]point, len(ks))
	twin := make([]int, len(ks)) // the first point of each point's content
	firstOf := map[int]int{}
	for i, k := range ks {
		cfg := piuma.DefaultConfig()
		cfg.Cores = 1 + 3*(k/4)
		pts[i] = point{label: fmt.Sprintf("p%d k=%d", i, k), cfg: cfg, k: k}
		if _, ok := firstOf[k]; !ok {
			firstOf[k] = i
		}
		twin[i] = firstOf[k]
	}
	want := make([]string, len(ks))
	for i, k := range ks {
		want[i] = fmt.Sprintf("k=%d", k)
	}
	// sweepOnce runs pts once, failing the points of K failK, and
	// returns the sweep's results, the run calls per K and its error.
	sweepOnce := func(ctx context.Context, failK int) ([]string, map[int]int, error) {
		var mu sync.Mutex
		calls := map[int]int{}
		run := func(p point, tr sim.Tracer) (string, error) {
			mu.Lock()
			calls[p.k]++
			mu.Unlock()
			runtime.Gosched()
			if tr != nil {
				d := sim.Time(p.k) * sim.Nanosecond
				tr.Event(d)
				tr.Reserve(fmt.Sprintf("slice%d", p.k), 0, d)
				tr.Span("t0", "startup", d, 2*d)
			}
			if p.k == failK {
				return "", fmt.Errorf("k=%d failed", p.k)
			}
			return fmt.Sprintf("k=%d", p.k), nil
		}
		res, err := sweep(ctx, pts, run, echo)
		return res, calls, err
	}

	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d/reuse", procs), func(t *testing.T) {
			setGOMAXPROCS(t, procs)
			cp := NewCheckpoint()
			var observed []Point
			cp.SetObserver(func(p Point) { observed = append(observed, p) })
			prof := obs.NewProfiler(obs.ProfilerOptions{})
			res, calls, err := sweepOnce(WithCheckpoint(obs.NewContext(context.Background(), prof), cp), 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := map[int]int{1: 1, 2: 1, 3: 1, 4: 1}; !reflect.DeepEqual(calls, want) {
				t.Fatalf("run calls per K = %v, want one per content %v", calls, want)
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("results %v, want %v", res, want)
			}
			if len(observed) != len(pts) {
				t.Fatalf("observer saw %d points, want %d", len(observed), len(pts))
			}
			for i, p := range observed {
				if p.Label != pts[i].label || p.Summary != want[i] {
					t.Fatalf("observed point %d = %s: %q, want %s: %q", i, p.Label, p.Summary, pts[i].label, want[i])
				}
			}
			if !reflect.DeepEqual(checkpointLabels(cp), pointLabels(pts)) {
				t.Fatalf("checkpoint order %v, want %v", checkpointLabels(cp), pointLabels(pts))
			}
			if cp.Reused() != 0 {
				t.Fatalf("content reuse counted %d checkpoint reuses", cp.Reused())
			}
			stats := prof.Stats()
			if len(stats) != len(pts) {
				t.Fatalf("%d profiler runs, want %d", len(stats), len(pts))
			}
			for i, s := range stats {
				if s.Label != pts[i].label || s.Events != 1 {
					t.Fatalf("profiler run %d = %s with %d events, want %s with 1", i, s.Label, s.Events, pts[i].label)
				}
				src := stats[twin[i]]
				s.Label = src.Label
				if !reflect.DeepEqual(s, src) {
					t.Fatalf("profiler run %s differs from its twin's:\n%+v\n%+v", pts[i].label, s, src)
				}
			}
		})
		t.Run(fmt.Sprintf("procs=%d/restored-twin", procs), func(t *testing.T) {
			setGOMAXPROCS(t, procs)
			cp := NewCheckpoint()
			cp.Complete(pts[0].label, want[0], want[0])
			res, calls, err := sweepOnce(WithCheckpoint(context.Background(), cp), 0)
			if err != nil {
				t.Fatal(err)
			}
			if calls[1] != 1 || cp.Reused() != 1 {
				t.Fatalf("K=1 ran %d times with %d checkpoint reuses, want its unrestored points run once and 1 reuse", calls[1], cp.Reused())
			}
			if !reflect.DeepEqual(res, want) || !reflect.DeepEqual(checkpointLabels(cp), pointLabels(pts)) {
				t.Fatalf("results %v in checkpoint order %v", res, checkpointLabels(cp))
			}
		})
		t.Run(fmt.Sprintf("procs=%d/failing-first", procs), func(t *testing.T) {
			setGOMAXPROCS(t, procs)
			cp := NewCheckpoint()
			res, calls, err := sweepOnce(WithCheckpoint(context.Background(), cp), 2)
			if err == nil || err.Error() != "k=2 failed" || res != nil {
				t.Fatalf("sweep returned %v, %v; want the first occurrence's error", res, err)
			}
			if calls[2] != 1 {
				t.Fatalf("the failing content ran %d times", calls[2])
			}
			if got, want := checkpointLabels(cp), pointLabels(pts[:1]); !reflect.DeepEqual(got, want) {
				t.Fatalf("checkpoint = %v, want %v", got, want)
			}
		})
	}
}

// TestSweepSimulatesUndecodableRestoredPoint: a restored point whose
// value does not decode as its kind is simulated, and is not counted as
// reused.
func TestSweepSimulatesUndecodableRestoredPoint(t *testing.T) {
	cp := NewCheckpoint()
	cp.Restore([]Point{{Label: "p", Kind: kindResult, Value: json.RawMessage(`"not a result"`), Summary: "stale"}})
	calls := 0
	run := func(p point, _ sim.Tracer) (kernels.Result, error) {
		calls++
		return kernels.Result{K: p.k}, nil
	}
	res, err := sweep(WithCheckpoint(context.Background(), cp), []point{{label: "p", k: 8}}, run,
		func(kernels.Result) string { return "fresh" })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || res[0].K != 8 {
		t.Fatalf("run called %d times, result %+v; want the point simulated once", calls, res[0])
	}
	if cp.Reused() != 0 {
		t.Fatalf("Reused = %d for a point the sweep could not use", cp.Reused())
	}
	if pts := cp.Points(); len(pts) != 1 || pts[0].Summary != "fresh" {
		t.Fatalf("checkpoint = %+v, want the simulated point", pts)
	}
}

// BenchmarkSweepDMA runs fig6 then fig7 at the 2^13 cap and seed 7,
// untraced and each with a fresh checkpoint, as one pass of perfbench's
// dma-sweep workload does, and reports the points simulated per op.
func BenchmarkSweepDMA(b *testing.B) {
	o := Options{MaxSimEdges: 1 << 13, Seed: 7}
	var exps []Experiment
	for _, id := range []string{"fig6", "fig7"} {
		e, err := ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		exps = append(exps, e)
	}
	if _, err := simGraph(o); err != nil {
		b.Fatal(err)
	}
	sims := countSimulations(b)
	b.ResetTimer()
	for range b.N {
		for _, e := range exps {
			if _, err := e.Run(WithCheckpoint(context.Background(), NewCheckpoint()), o); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(sims.Load())/float64(b.N), "points/op")
}
