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
//
// A sweep simulates each distinct point once. A point's content is the
// point minus its label (machine, kernel, K and fault spec), and run
// depends on nothing else: the graph is fixed per sweep. Figures 6 and
// 7 vary one machine parameter per axis, so the default machine shows
// up on more than one axis. A later point with the content of one
// already dispatched is not run: when that first occurrence lands, the
// repeat takes its result and is committed in sweep order under its own
// label and summary, so checkpoints, observers and journals see every
// label with the same bytes as when each point ran. In a profiled sweep
// the repeat still registers its own profiler run in sweep order, and
// that run replays its twin's recorded activity (obs.RunTrace.Replay),
// so profiles and traces differ only in the label. Reuse is per sweep
// because the graph and run are; sharing points across the sweeps of
// one invocation is a job for a pool over all of them. A point restored
// from the checkpoint is never a twin: it has no recorded run to
// replay, so a later point of its content is simulated.

// point is one simulation of a sweep.
type point struct {
	label  string
	cfg    piuma.Config
	kind   kernels.Kind // SpMM kernel (unused by random walks)
	k      int          // feature width K; walk length for random walks
	faults *faults.Spec // nil simulates the healthy machine
}

// content is a point minus its label: all that its simulation depends on.
type content struct {
	cfg    piuma.Config
	kind   kernels.Kind
	k      int
	faulty bool
	faults faults.Spec
}

func (p point) content() content {
	c := content{cfg: p.cfg, kind: p.kind, k: p.k}
	if p.faults != nil {
		c.faulty, c.faults = true, *p.faults
	}
	return c
}

// runKernel simulates one SpMM kernel point; tests wrap it to count
// simulations.
var runKernel = kernels.RunFaulty

// sweepKernels runs SpMM kernel points on g.
func sweepKernels(ctx context.Context, g *graph.CSR, pts []point) ([]kernels.Result, error) {
	return sweep(ctx, pts, func(p point, tr sim.Tracer) (kernels.Result, error) {
		return runKernel(p.kind, p.cfg, p.faults, g, p.k, tr)
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
// profiler, and its result must depend only on the point's content:
// a point whose content repeats an earlier one's is not run but takes
// that point's result. A point the checkpoint in ctx already holds is
// reused, not run; each fresh result is checkpointed (with summarize's
// digest) once every point before it has been.
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
	traces := make([]*obs.RunTrace, len(pts)) // the points' profiler runs
	first := make(map[content]int)            // content → the point that simulates it
	twins := make(map[int][]int)              // that point → later points of its content
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
	// reuse lands point i with the outcome of its landed twin src. A
	// failed twin's outcome is copied too, but advance stops at src.
	reuse := func(i, src int) {
		outs[i] = outs[src]
		outs[i].i = i
		if prof != nil {
			traces[i].Replay(traces[src])
		}
	}
	receive := func() {
		o := <-finished
		inflight--
		threads -= pts[o.i].cfg.WorkerThreads()
		outs[o.i] = o
		failed = failed || o.err != nil || o.panicV != nil
		for _, j := range twins[o.i] {
			reuse(j, o.i)
		}
		advance()
	}
	halted := func() bool { return failed || ctx.Err() != nil }
	startRun := func(i int) sim.Tracer {
		if prof == nil {
			return nil
		}
		traces[i] = prof.StartRun(pts[i].label)
		return traces[i]
	}

	for i, p := range pts {
		if halted() {
			break
		}
		if res, ok := lookup[R](cp, p.label); ok {
			outs[i] = sweepOutcome[R]{i: i, res: res, landed: true}
			advance()
			continue
		}
		key := p.content()
		if src, ok := first[key]; ok {
			startRun(i)
			if outs[src].landed {
				reuse(i, src)
				advance()
			} else {
				twins[src] = append(twins[src], i)
			}
			continue
		}
		w := p.cfg.WorkerThreads()
		for inflight > 0 && (inflight >= workers || threads+w > budget) {
			receive()
		}
		if halted() {
			break
		}
		tr := startRun(i)
		first[key] = i
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
