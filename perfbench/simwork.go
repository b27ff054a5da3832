package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"piumagcn/internal/amodel"
	"piumagcn/internal/bench"
	"piumagcn/internal/graph"
	"piumagcn/internal/obs"
	"piumagcn/internal/ogb"
	"piumagcn/internal/piuma"
	"piumagcn/internal/piuma/kernels"
	"piumagcn/internal/sim"
)

const (
	// simEdges caps the products-shaped graph both simulator workloads
	// run on: big enough that per-event costs dominate, small enough for
	// several passes of fixed work in one run.
	simEdges = 1 << 13
	// setupPerPass is how many times a run generates the graph before
	// each pass; setup_s is the median of all those generations.
	setupPerPass = 3
	// loopCores and loopK are the costliest Figure 5 point.
	loopCores = 8
	loopK     = 256
)

// graphSetup is a simulator workload's set-up: generating the
// products-shaped graph. A run generates it setupPerPass times before
// every pass, so the samples behind setup_s span the whole run rather
// than a few milliseconds of it, when the host may happen to be busy.
type graphSetup struct {
	products ogb.Dataset
	o        bench.Options
	times    []float64
}

func newGraphSetup(o bench.Options) (*graphSetup, error) {
	products, err := ogb.ByName("products")
	if err != nil {
		return nil, err
	}
	return &graphSetup{products: products, o: o}, nil
}

// generate times setupPerPass generations and returns the last graph.
func (s *graphSetup) generate() (*graph.CSR, error) {
	var g *graph.CSR
	for range setupPerPass {
		// Each generation starts from a collected heap, so whether a
		// collection falls inside it does not depend on the ones before.
		runtime.GC()
		t0 := time.Now()
		var err error
		g, _, err = ogb.Generate(s.products, ogb.GenerateOptions{MaxEdges: s.o.MaxSimEdges, Seed: s.o.Seed})
		if err != nil {
			return nil, fmt.Errorf("generating graph: %w", err)
		}
		s.times = append(s.times, time.Since(t0).Seconds())
	}
	return g, nil
}

// report sets setup_s and ogb.generate_s, the median generation time.
func (s *graphSetup) report(out *outcome) {
	out.set("setup_s", median(s.times))
	out.set("ogb.generate_s", median(s.times))
}

// modelBound is the internal/amodel bandwidth-bound GFLOPS for the
// problem a kernel result solved on its machine.
func modelBound(r kernels.Result) (float64, error) {
	prob := amodel.Problem{
		V: r.V, E: r.E, K: int64(r.K),
		W: amodel.ByteWidths{Row: 8, Col: r.Cfg.ColIndexBytes, NonZero: r.Cfg.ValueBytes, Feature: r.Cfg.FeatureBytes},
	}
	bw := r.Cfg.AggregateBandwidth()
	return prob.GFLOPS(amodel.Bandwidth{Read: bw, Write: bw})
}

// checkResult applies the correctness rules to one simulated result and
// returns its GFLOPS over the model bound.
func checkResult(r kernels.Result) (float64, error) {
	if r.Events <= 0 {
		return 0, errors.New("no simulation events")
	}
	if r.AvgSliceUtilization > 1+1e-9 {
		return 0, fmt.Errorf("slice utilisation %.6f above 1", r.AvgSliceUtilization)
	}
	bound, err := modelBound(r)
	if err != nil {
		return 0, err
	}
	if r.GFLOPS > bound*(1+1e-9) {
		return 0, fmt.Errorf("%.3f GFLOPS exceeds the %.3f GFLOPS bandwidth bound", r.GFLOPS, bound)
	}
	return r.GFLOPS / bound, nil
}

// simTotals aggregates the simulated statistics of one pass.
type simTotals struct {
	results                   int
	edges                     int64
	elapsed                   sim.Time
	gflops, ratio, sliceUtil  float64
	nnz, dmaQueue, barrier, t sim.Time
}

func (s *simTotals) add(r kernels.Result, ratio float64) {
	s.results++
	s.edges += r.E
	s.elapsed += r.Elapsed
	s.gflops += r.GFLOPS
	s.ratio += ratio
	s.sliceUtil += r.AvgSliceUtilization
	s.nnz += r.Breakdown.NNZWait
	s.dmaQueue += r.Breakdown.DMAQueueWait
	s.barrier += r.Breakdown.Barrier
	s.t += r.Breakdown.Total()
}

func (s *simTotals) report(out *outcome) {
	n := float64(max(s.results, 1))
	out.set("kernels.sim_us", s.elapsed.Seconds()*1e6)
	out.set("kernels.gflops", s.gflops/n)
	out.set("kernels.model_ratio", s.ratio/n)
	out.set("piuma.slice_util", s.sliceUtil/n)
	if s.t > 0 {
		out.set("kernels.nnz_wait_share", float64(s.nnz)/float64(s.t))
		out.set("kernels.dma_queue_share", float64(s.dmaQueue)/float64(s.t))
		out.set("kernels.barrier_share", float64(s.barrier)/float64(s.t))
	}
}

// hostCost is the host time, CPU time and allocation of one pass.
type hostCost struct {
	wall, cpu time.Duration
	mem       memSnapshot
}

func measure(fn func()) hostCost {
	m0, c0, t0 := readMem(), cpuTime(), time.Now()
	fn()
	return hostCost{wall: time.Since(t0), cpu: cpuTime() - c0, mem: readMem().sub(m0)}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// reportHost sets the host-cost metrics of the untraced passes.
func reportHost(out *outcome, costs []hostCost, events, edges int64) {
	walls, allocs, bytes, gcs, pauses := make([]float64, len(costs)), make([]float64, len(costs)),
		make([]float64, len(costs)), make([]float64, len(costs)), make([]float64, len(costs))
	for i, c := range costs {
		walls[i] = float64(c.wall.Nanoseconds())
		allocs[i] = float64(c.mem.mallocs)
		bytes[i] = float64(c.mem.bytes)
		gcs[i] = float64(c.mem.numGC)
		pauses[i] = float64(c.mem.pauseNs) / 1e6
	}
	wall := median(walls)
	if events > 0 {
		out.set("sim.ns_per_event", wall/float64(events))
		out.set("sim.allocs_per_event", median(allocs)/float64(events))
	}
	if edges > 0 {
		out.set("kernels.ns_per_edge", wall/float64(edges))
		out.set("kernels.allocs_per_edge", median(allocs)/float64(edges))
		out.set("kernels.bytes_per_edge", median(bytes)/float64(edges))
	}
	out.set("runtime.gc_cycles", median(gcs))
	out.set("runtime.gc_pause_ms", median(pauses))
}

func overhead(traced, untraced []hostCost) float64 {
	return median(walls(traced)) / median(walls(untraced))
}

func walls(cs []hostCost) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.wall.Seconds()
	}
	return out
}

// keepGoing reports whether a timed loop should run another pass: until
// the deadline, and in a traced run until it has at least one traced and
// one untraced pass.
func keepGoing(c config, deadline time.Time, untraced, traced int) bool {
	if untraced == 0 || (c.trace && traced == 0) {
		return true
	}
	return time.Now().Before(deadline)
}

// --- dma-sweep ---------------------------------------------------------

// dmaPoint is one completed sweep point as the checkpoint observer saw it.
type dmaPoint struct {
	label string
	value json.RawMessage
	done  time.Time
}

// dmaPass is one run of fig6 then fig7.
type dmaPass struct {
	ops, failed int64
	cost        hostCost
	// pointMS are the points' host latencies: each point's completion
	// minus the previous completion (or its experiment's start).
	pointMS []float64
	// selfS is the pass wall time not covered by points.
	selfS   float64
	records [][]byte
	totals  simTotals
	prof    *obs.Profiler
	spans   []span
	errs    []string
}

func runDMASweep(ctx context.Context, c config) (*outcome, error) {
	o := bench.Options{MaxSimEdges: simEdges, Seed: c.seed}
	out := &outcome{metrics: map[string]float64{}}
	setup, err := newGraphSetup(o)
	if err != nil {
		return nil, err
	}
	var exps []bench.Experiment
	for _, id := range []string{"fig6", "fig7"} {
		e, err := bench.ByID(id)
		if err != nil {
			return nil, err
		}
		exps = append(exps, e)
	}
	// Warm bench's own graph cache: a canceled run generates the graph
	// and stops before its first sweep point.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := exps[0].Run(canceled, o); !errors.Is(err, context.Canceled) {
		return nil, fmt.Errorf("warming the sweep graph: %v", err)
	}

	var untraced, traced []dmaPass
	deadline := time.Now().Add(c.seconds)
	for i := 0; keepGoing(c, deadline, len(untraced), len(traced)); i++ {
		if _, err := setup.generate(); err != nil {
			return nil, err
		}
		tr := c.trace && i%2 == 1
		p := runDMAPass(ctx, exps, o, tr)
		if tr {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	setup.report(out)

	all := append(append([]dmaPass(nil), untraced...), traced...)
	first := digest(all[0].records)
	out.digest = first
	var costs []hostCost
	var points, selfs, passWalls []float64
	for _, p := range all {
		out.attempted += p.ops
		out.failed += p.failed
		for _, e := range p.errs {
			out.note("failed: %s", e)
		}
		if d := digest(p.records); d != first {
			out.failed++
			out.note("failed: pass digest %s differs from %s", d, first)
		}
	}
	for _, p := range untraced {
		costs = append(costs, p.cost)
		passWalls = append(passWalls, p.cost.wall.Seconds())
		points = append(points, p.pointMS...)
		selfs = append(selfs, p.selfS)
	}
	out.set("wall_s", median(passWalls))
	out.set("req_p50_ms", median(points))
	p90, ok := tail(points, 0.90)
	if !ok {
		return nil, fmt.Errorf("only %d sweep points, too few for a p90", len(points))
	}
	// A run holds a few passes of 109 points: too few for a p99, so the
	// tail reported under req_p99_ms is the sweep points' p90.
	out.set("req_p99_ms", p90)
	out.note("dma-sweep: %d passes of fig6+fig7, %d sweep points; req_p99_ms is the p90 of sweep-point latency", len(untraced), len(points))

	if !c.trace {
		return out, nil
	}
	p := traced[0]
	var events, slices, mtps, dmas, remote int64
	for _, s := range p.prof.Stats() {
		events += s.Events
		for _, cl := range s.Classes {
			switch cl.Class {
			case "dram-slice":
				slices += cl.Count
			case "core":
				mtps += cl.Count
			case "dma":
				dmas += cl.Count
			case "network":
				remote += cl.Count
			}
		}
	}
	var procs int64
	summary := p.prof.Summary()
	if i := strings.Index(summary, "spawns="); i >= 0 {
		fmt.Sscanf(summary[i:], "spawns=%d", &procs)
	}
	out.set("sim.events", float64(events))
	// obs.Profiler counts process resumes but does not expose them.
	out.set("sim.switches", 0)
	out.set("sim.procs", float64(procs))
	out.set("piuma.slice_reservations", float64(slices))
	out.set("piuma.mtp_reservations", float64(mtps))
	out.set("piuma.dma_reservations", float64(dmas))
	out.set("piuma.remote_reads", float64(remote))
	p.totals.report(out)
	reportHost(out, costs, events, p.totals.edges)
	out.set("bench.points", float64(p.totals.results))
	out.set("bench.point_ms_p50", median(points))
	out.set("bench.point_ms_p90", p90)
	out.set("bench.self_s", median(selfs))
	var parallel []float64
	for _, c := range costs {
		parallel = append(parallel, c.cpu.Seconds()/c.wall.Seconds())
	}
	out.set("bench.parallelism", median(parallel))
	var tcosts []hostCost
	for _, tp := range traced {
		tcosts = append(tcosts, tp.cost)
		out.spans = append(out.spans, tp.spans...)
	}
	out.set("trace.overhead", overhead(tcosts, costs))
	return out, nil
}

// runDMAPass runs fig6 then fig7 once, each with a fresh checkpoint
// whose observer collects the sweep points; traced passes also carry an
// aggregation-only obs.Profiler in ctx.
func runDMAPass(ctx context.Context, exps []bench.Experiment, o bench.Options, traced bool) dmaPass {
	var p dmaPass
	if traced {
		p.prof = obs.NewProfiler(obs.ProfilerOptions{MaxSpans: -1})
	}
	type expRun struct {
		id    string
		start time.Time
		pts   []dmaPoint
		err   error
	}
	var runs []expRun
	p.cost = measure(func() {
		for _, e := range exps {
			var mu sync.Mutex
			r := expRun{id: e.ID}
			cp := bench.NewCheckpoint()
			cp.SetObserver(func(pt bench.Point) {
				now := time.Now()
				mu.Lock()
				r.pts = append(r.pts, dmaPoint{label: pt.Label, value: pt.Value, done: now})
				mu.Unlock()
			})
			rctx := bench.WithCheckpoint(ctx, cp)
			if traced {
				rctx = obs.NewContext(rctx, p.prof)
			}
			r.start = time.Now()
			_, r.err = e.Run(rctx, o)
			p.spans = append(p.spans, span{Layer: "bench.Experiment.Run", Key: e.ID, Start: r.start, End: time.Now()})
			runs = append(runs, r)
		}
	})
	// Checking the points is the benchmark's own work: it stays out of
	// the measured pass.
	var inPoints time.Duration
	for _, r := range runs {
		p.ops++
		if err := p.addPoints(r.id, r.start, r.pts, r.err); err != nil {
			p.failed++
			p.errs = append(p.errs, err.Error())
		}
		inPoints += pointSpan(r.start, r.pts)
	}
	p.selfS = (p.cost.wall - inPoints).Seconds()
	return p
}

// pointSpan is the time from an experiment's start to its last point.
func pointSpan(start time.Time, pts []dmaPoint) time.Duration {
	if len(pts) == 0 {
		return 0
	}
	last := pts[0].done
	for _, pt := range pts {
		if pt.done.After(last) {
			last = pt.done
		}
	}
	return last.Sub(start)
}

func (p *dmaPass) addPoints(id string, start time.Time, pts []dmaPoint, runErr error) error {
	if runErr != nil {
		return fmt.Errorf("%s: %v", id, runErr)
	}
	if len(pts) == 0 {
		return fmt.Errorf("%s: no sweep points", id)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].done.Before(pts[j].done) })
	prev := start
	var bad error
	for _, pt := range pts {
		p.pointMS = append(p.pointMS, ms(pt.done.Sub(prev)))
		p.spans = append(p.spans, span{Layer: "kernels.Run", Key: pt.label, Start: prev, End: pt.done})
		prev = pt.done
		p.records = append(p.records, append([]byte(pt.label+"|"), pt.value...))
		var r kernels.Result
		if err := json.Unmarshal(pt.value, &r); err != nil {
			bad = fmt.Errorf("%s %s: decoding result: %v", id, pt.label, err)
			continue
		}
		ratio, err := checkResult(r)
		if err != nil {
			bad = fmt.Errorf("%s %s: %v", id, pt.label, err)
			continue
		}
		p.totals.add(r, ratio)
	}
	return bad
}

// --- loop-kernel -------------------------------------------------------

// countingTracer counts simulator activity through sim.Tracer.
type countingTracer struct {
	events, switches, procs   int64
	slices, mtps, dmas, reads int64
}

func (c *countingTracer) Event(sim.Time) { c.events++ }

func (c *countingTracer) Process(_ sim.Time, _, kind string) {
	switch kind {
	case "resume":
		c.switches++
	case "spawn":
		c.procs++
	}
}

func (c *countingTracer) Reserve(resource string, _, _ sim.Time) {
	switch {
	case strings.HasPrefix(resource, "slice"):
		c.slices++
	case strings.HasPrefix(resource, "mtp"):
		c.mtps++
	case strings.HasPrefix(resource, "dma"):
		c.dmas++
	}
}

func (c *countingTracer) Span(_, name string, _, _ sim.Time) {
	if name == "remote-read" {
		c.reads++
	}
}

func runLoopKernel(ctx context.Context, c config) (*outcome, error) {
	o := bench.Options{MaxSimEdges: simEdges, Seed: c.seed}
	out := &outcome{metrics: map[string]float64{}}
	setup, err := newGraphSetup(o)
	if err != nil {
		return nil, err
	}
	cfg := piuma.DefaultConfig()
	cfg.Cores = loopCores

	var untraced, traced []hostCost
	var tracer *countingTracer
	var res kernels.Result
	var spans []span
	first := ""
	deadline := time.Now().Add(c.seconds)
	for i := 0; keepGoing(c, deadline, len(untraced), len(traced)); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g, err := setup.generate()
		if err != nil {
			return nil, err
		}
		tr := c.trace && i%2 == 1
		var ct *countingTracer
		var r kernels.Result
		var runErr error
		start := time.Now()
		cost := measure(func() {
			if tr {
				ct = &countingTracer{}
				r, runErr = kernels.RunTraced(kernels.KindLoopUnrolled, cfg, g, loopK, ct)
			} else {
				r, runErr = kernels.Run(kernels.KindLoopUnrolled, cfg, g, loopK)
			}
		})
		spans = append(spans, span{Layer: "kernels.Run", Key: fmt.Sprintf("call %d traced=%v", i, tr), Start: start, End: start.Add(cost.wall)})
		out.attempted++
		if tr {
			traced = append(traced, cost)
		} else {
			untraced = append(untraced, cost)
		}
		if runErr != nil {
			out.failed++
			out.note("failed: call %d: %v", i, runErr)
			continue
		}
		if _, err := checkResult(r); err != nil {
			out.failed++
			out.note("failed: call %d: %v", i, err)
			continue
		}
		rec, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		d := digest([][]byte{rec})
		if first == "" {
			first, res = d, r
		} else if d != first {
			out.failed++
			out.note("failed: call %d digest %s differs from %s", i, d, first)
		}
		if tr && tracer == nil {
			tracer = ct
		}
	}
	setup.report(out)
	out.digest = first
	wallsS := walls(untraced)
	out.set("wall_s", median(wallsS))
	// One call is one operation, so a run holds too few for any tail
	// percentile: both latency metrics are the median call.
	out.set("req_p50_ms", median(wallsS)*1e3)
	out.set("req_p99_ms", median(wallsS)*1e3)
	out.note("loop-kernel: %d calls, E=%d, %d events per call; req_p50_ms and req_p99_ms are the median call", len(untraced), res.E, res.Events)
	if !c.trace {
		return out, nil
	}
	if tracer == nil {
		return nil, errors.New("no traced call succeeded")
	}
	out.set("sim.events", float64(tracer.events))
	out.set("sim.switches", float64(tracer.switches))
	out.set("sim.procs", float64(tracer.procs))
	out.set("piuma.slice_reservations", float64(tracer.slices))
	out.set("piuma.mtp_reservations", float64(tracer.mtps))
	out.set("piuma.dma_reservations", float64(tracer.dmas))
	out.set("piuma.remote_reads", float64(tracer.reads))
	var totals simTotals
	ratio, _ := checkResult(res)
	totals.add(res, ratio)
	totals.report(out)
	reportHost(out, untraced, tracer.events, res.E)
	out.set("trace.overhead", overhead(traced, untraced))
	out.spans = spans
	return out, nil
}
