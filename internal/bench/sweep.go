package bench

import (
	"context"
	"fmt"
	"runtime"

	"piumagcn/internal/faults"
	"piumagcn/internal/graph"
	"piumagcn/internal/obs"
	"piumagcn/internal/piuma"
	"piumagcn/internal/piuma/kernels"
	"piumagcn/internal/sim"
)

// This file runs the sweeps behind the simulated figures. A figure
// lists its sweep points — independent simulations — and hands them to
// sweep, which runs them on up to GOMAXPROCS goroutines and returns the
// results in sweep order. Everything a caller can observe keeps the
// order of a serial sweep: profiler runs are registered, checkpoints
// looked up and completed points committed in sweep order on the
// calling goroutine, so reports, Chrome traces, checkpoint journals and
// partial reports are byte-identical to running the points one by one.
//
// One admission rule bounds memory. Every simulated thread of a DMA
// kernel is a live coroutine with its own stack, and the GC heap goal
// counts stack bytes, so two large points in flight cost more than
// either alone. A point is dispatched only while the worker threads of
// the points in flight, plus its own, stay within the largest point of
// the sweep (and always when nothing is in flight): the sweep never
// holds more live simulated processes than its serial form did at its
// peak. Loop-unrolled and random-walk threads are stackless step
// processes and cost a few hundred bytes each, but they count against
// the budget all the same, so one rule covers every sweep.

// point is one simulation of a sweep.
type point struct {
	label  string
	cfg    piuma.Config
	kind   kernels.Kind // SpMM kernel (unused by random walks)
	k      int          // feature width K; walk length for random walks
	faults *faults.Spec // nil simulates the healthy machine
}

// sweepKernels runs SpMM kernel points on g.
func sweepKernels(ctx context.Context, g *graph.CSR, pts []point) ([]kernels.Result, error) {
	return sweep(ctx, pts, func(p point, tr sim.Tracer) (kernels.Result, error) {
		return kernels.RunFaulty(p.kind, p.cfg, p.faults, g, p.k, tr)
	}, func(r kernels.Result) string {
		return fmt.Sprintf("%.1f GFLOPS in %.1fus", r.GFLOPS, r.Elapsed.Seconds()*1e6)
	})
}

// sweepWalks runs random-walk points of p.k steps on g (fault injection
// does not apply to walks, checkpoint resume does).
func sweepWalks(ctx context.Context, g *graph.CSR, pts []point) ([]kernels.WalkResult, error) {
	return sweep(ctx, pts, func(p point, tr sim.Tracer) (kernels.WalkResult, error) {
		return kernels.RunRandomWalkTraced(p.cfg, g, p.k, tr)
	}, func(r kernels.WalkResult) string {
		return fmt.Sprintf("%.2f Msteps/s", r.StepsPerSecond/1e6)
	})
}

// sweepOutcome is one point's result on its way to being committed.
type sweepOutcome[R any] struct {
	i      int
	res    R
	err    error
	panicV any  // a panic out of run, raised again on the sweep's goroutine
	landed bool // the point finished or was reused
	fresh  bool // simulated by this sweep, so it still has to be checkpointed
}

// sweep runs pts with run and returns their results in sweep order.
// run's tracer is the point's profiler run, nil when ctx carries no
// profiler. A point the checkpoint in ctx already holds is reused, not
// run; each fresh result is checkpointed (with summarize's digest) once
// every point before it has been.
//
// Errors keep serial semantics: sweep returns the error of the lowest
// failing index and commits no point after it, and a panic in run is
// raised again here. Once ctx is done sweep dispatches nothing more,
// lets the points in flight finish and commit, and returns ctx.Err().
func sweep[R any](ctx context.Context, pts []point, run func(point, sim.Tracer) (R, error), summarize func(R) string) ([]R, error) {
	cp := CheckpointFrom(ctx)
	prof := obs.FromContext(ctx)
	workers := runtime.GOMAXPROCS(0)
	budget := 0
	for _, p := range pts {
		budget = max(budget, p.cfg.WorkerThreads())
	}

	outs := make([]sweepOutcome[R], len(pts))
	finished := make(chan sweepOutcome[R], len(pts))
	inflight, threads := 0, 0
	failed := false
	commit := 0 // every point before commit is committed
	advance := func() {
		for ; commit < len(pts) && outs[commit].landed; commit++ {
			o := outs[commit]
			if o.err != nil || o.panicV != nil {
				return
			}
			if o.fresh {
				cp.Complete(pts[commit].label, o.res, summarize(o.res))
			}
		}
	}
	receive := func() {
		o := <-finished
		inflight--
		threads -= pts[o.i].cfg.WorkerThreads()
		outs[o.i] = o
		failed = failed || o.err != nil || o.panicV != nil
		advance()
	}
	halted := func() bool { return failed || ctx.Err() != nil }

	for i, p := range pts {
		if halted() {
			break
		}
		if v, ok := cp.Lookup(p.label); ok {
			if res, ok := v.(R); ok {
				outs[i] = sweepOutcome[R]{i: i, res: res, landed: true}
				advance()
				continue
			}
		}
		w := p.cfg.WorkerThreads()
		for inflight > 0 && (inflight >= workers || threads+w > budget) {
			receive()
		}
		if halted() {
			break
		}
		var tr sim.Tracer
		if prof != nil {
			tr = prof.StartRun(p.label)
		}
		inflight++
		threads += w
		go func() {
			o := sweepOutcome[R]{i: i, landed: true, fresh: true}
			defer func() {
				o.panicV = recover()
				finished <- o
			}()
			o.res, o.err = run(p, tr)
		}()
	}
	for inflight > 0 {
		receive()
	}

	if commit == len(pts) {
		res := make([]R, len(pts))
		for i, o := range outs {
			res[i] = o.res
		}
		return res, nil
	}
	if o := outs[commit]; o.landed {
		if o.panicV != nil {
			panic(o.panicV)
		}
		return nil, o.err
	}
	return nil, ctx.Err()
}
