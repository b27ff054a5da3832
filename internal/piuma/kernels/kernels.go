// Package kernels implements the two PIUMA SpMM implementations of
// Section IV-B as timed programs on the simulated machine:
//
//   - LoopUnrolled: Algorithm 2 executed by the MTP pipelines directly.
//     The sparse structure is read with the default fine-grained 8-byte
//     stall-on-use loads (column index, then value — each a full memory
//     round trip, each occupying a whole DRAM burst), and the feature
//     vector with eight values unrolled per aligned 64-byte line fetch.
//     The per-edge chain of dependent round trips is exactly what makes
//     this kernel collapse as remote latency grows with core count
//     (Figure 5, Section IV-B).
//
//   - DMA: the optimized kernel. Threads stream the non-zeros through
//     the data cache (one line fetch covers several edges) and enqueue
//     DMA descriptors; the per-core DMA engine performs the buffer-init
//     / multiply-read / copy-add sequence and the row write-back at full
//     slice bandwidth without stalling the pipelines.
//
// Both kernels consume a real CSR structure so the access pattern (which
// slice each feature row lives on, where row boundaries fall) is the
// graph's own, and both report an execution-time breakdown used by
// Figures 7 (bottom) and 8 (right).
package kernels

import (
	"fmt"
	"sort"

	"piumagcn/internal/faults"
	"piumagcn/internal/graph"
	"piumagcn/internal/piuma"
	"piumagcn/internal/sim"
)

// Kind names a simulated kernel.
type Kind string

const (
	// KindLoopUnrolled is the pipeline-issued kernel.
	KindLoopUnrolled Kind = "loop-unrolled"
	// KindDMA is the DMA-offload kernel (edge-parallel, Algorithm 2).
	KindDMA Kind = "dma"
	// KindVertexDMA is the DMA kernel with vertex-parallel work
	// division: each thread owns a contiguous range of rows, so no
	// binary search and no shared-row atomics are needed, but
	// power-law degree skew produces load imbalance — the trade-off
	// discussed in Sections II-C and IV-B that made the paper choose
	// edge-parallel on PIUMA.
	KindVertexDMA Kind = "vertex-dma"
)

// Breakdown attributes simulated thread time to the phases the paper
// discusses. All values are summed across threads.
type Breakdown struct {
	// NNZWait is time threads spent stalled on sparse-structure (column
	// index + value) reads — the critical path of Section IV-C.
	NNZWait sim.Time
	// FeatureWait is time stalled on dense feature-line reads (only the
	// loop-unrolled kernel stalls here; the DMA engine absorbs it).
	FeatureWait sim.Time
	// DMAQueueWait is time blocked on a full DMA descriptor queue.
	DMAQueueWait sim.Time
	// Compute is pipeline-issue time (bookkeeping, MACs, descriptor
	// setup).
	Compute sim.Time
	// Startup is the binary-search row lookup of Algorithm 2 line 4.
	Startup sim.Time
	// Barrier is time between a thread finishing and the kernel
	// completing (load imbalance + DMA drain).
	Barrier sim.Time
}

// Total returns the sum of all phases.
func (b Breakdown) Total() sim.Time {
	return b.NNZWait + b.FeatureWait + b.DMAQueueWait + b.Compute + b.Startup + b.Barrier
}

// Result reports one simulated kernel execution.
type Result struct {
	Kernel    Kind
	Cfg       piuma.Config
	V         int64
	E         int64
	K         int
	Elapsed   sim.Time
	GFLOPS    float64
	Breakdown Breakdown
	// AvgSliceUtilization is mean DRAM-slice busy fraction over the
	// run; the DMA kernel should keep this near 1 (Key Takeaway 1).
	AvgSliceUtilization float64
	// DeliveredBytes is total slice-bus traffic, for conservation
	// checks against the analytical model's byte counts.
	DeliveredBytes float64
	// AvgNNZLatency is the mean observed latency of a blocking sparse-
	// structure read, the quantity Section IV-B reports as ~6x higher
	// at 32 cores than at one.
	AvgNNZLatency sim.Time
	// Events is the number of simulation events processed.
	Events int64
}

// Run simulates kernel `kind` computing A·H for an |V|×K dense matrix on
// machine cfg. Only the structure of a is consulted (timing depends on
// the access pattern, not the values).
func Run(kind Kind, cfg piuma.Config, a *graph.CSR, k int) (Result, error) {
	return RunTraced(kind, cfg, a, k, nil)
}

// RunTraced is Run with a tracer observing the simulation: engine
// events, component reservations (slices, MTPs, DMA engines), network
// flight spans, and per-thread phase spans all flow to tr. Tracing
// never changes timing; a nil tr is exactly Run.
func RunTraced(kind Kind, cfg piuma.Config, a *graph.CSR, k int, tr sim.Tracer) (Result, error) {
	return RunFaulty(kind, cfg, nil, a, k, tr)
}

// RunFaulty is RunTraced on a machine degraded by the fault spec fs:
// dead cores/MTPs shrink the worker-thread inventory, derated slices
// stretch bus occupancy, and the network sees inflated latency plus
// retransmit-on-loss. A nil or empty spec is exactly RunTraced — the
// healthy code paths are untouched, so uninjected results stay
// bit-identical. Identical cfg, spec and graph reproduce the identical
// simulation (the spec's seed drives every random choice). The
// random-walk microbenchmark (RunRandomWalkTraced) is out of scope for
// fault injection; only the SpMM kernels run degraded.
func RunFaulty(kind Kind, cfg piuma.Config, fs *faults.Spec, a *graph.CSR, k int, tr sim.Tracer) (Result, error) {
	switch kind {
	case KindLoopUnrolled, KindDMA, KindVertexDMA:
	default:
		return Result{}, fmt.Errorf("kernels: unknown kernel %q", kind)
	}
	if k <= 0 {
		return Result{}, fmt.Errorf("kernels: embedding dimension %d must be positive", k)
	}
	if err := a.Validate(); err != nil {
		return Result{}, err
	}
	m, err := piuma.NewDegradedMachine(cfg, fs)
	if err != nil {
		return Result{}, err
	}
	if tr != nil {
		m.SetTracer(tr)
	}
	r := &runner{kind: kind, m: m, a: a, k: k, tr: tr}
	r.launch()
	if err := m.Eng.Run(); err != nil {
		return Result{}, fmt.Errorf("kernels: simulation failed: %w", err)
	}
	elapsed := r.finish
	res := Result{
		Kernel:         kind,
		Cfg:            cfg,
		V:              int64(a.NumVertices),
		E:              a.NumEdges(),
		K:              k,
		Elapsed:        elapsed,
		Breakdown:      r.bd,
		DeliveredBytes: m.DeliveredBytes(),
		Events:         m.Eng.Events(),
	}
	if r.nnzReads > 0 {
		res.AvgNNZLatency = r.nnzLatency / sim.Time(r.nnzReads)
	}
	if elapsed > 0 {
		res.GFLOPS = float64(2*res.E*int64(k)) / elapsed.Seconds() / 1e9
		util := 0.0
		for _, s := range m.Slices {
			util += s.Utilization(elapsed)
		}
		res.AvgSliceUtilization = util / float64(len(m.Slices))
	}
	return res, nil
}

type runner struct {
	kind   Kind
	m      *piuma.Machine
	a      *graph.CSR
	k      int
	tr     sim.Tracer
	bd     Breakdown
	finish sim.Time
	// nnzLatency/nnzReads accumulate observed blocking-read latencies.
	nnzLatency sim.Time
	nnzReads   int64
	// salt decorrelates repeated row-granular slice choices (the DGAS
	// stripes rows across slices at line granularity).
	salt int64
	// dmaRelease[c] is core c's DMA queue Release, bound once so that
	// scheduling a descriptor's slot release allocates nothing.
	dmaRelease []func()
	// loop is the loop-unrolled kernel's per-access constants.
	loop loopCosts
}

// rowHome picks the home slice for one row-granular access.
func (r *runner) rowHome(row int64) int {
	r.salt++
	return r.m.HomeOfRow(row, r.salt)
}

func (r *runner) nnzBytesPerEdge() int64 {
	return int64(r.m.Cfg.ColIndexBytes + r.m.Cfg.ValueBytes)
}

func (r *runner) featureRowBytes() int64 {
	return int64(r.k) * int64(r.m.Cfg.FeatureBytes)
}

// burst rounds a transfer up to the DRAM burst (cache line) size: even
// an 8-byte uncached load occupies a full burst on the slice bus.
func (r *runner) burst(n int64) int64 {
	line := int64(r.m.Cfg.CacheLineBytes)
	if n < line {
		return line
	}
	return n
}

func (r *runner) launch() {
	cfg := &r.m.Cfg
	e := r.a.NumEdges()
	if e == 0 {
		return
	}
	// Threads spread over the live pipelines. On a healthy machine the
	// slot list reproduces the legacy core-interleaved placement exactly
	// (slot i is core i%Cores, MTP (i/Cores)%MTPsPerCore); fault
	// injection shrinks it to the surviving pipelines.
	slots := r.m.WorkerSlots()
	threads := len(slots) * cfg.ThreadsPerMTP
	if int64(threads) > e {
		threads = int(e)
	}
	if r.kind == KindVertexDMA && int64(threads) > int64(r.a.NumVertices) {
		threads = r.a.NumVertices
	}
	r.dmaRelease = make([]func(), len(r.m.DMAs))
	for i, d := range r.m.DMAs {
		r.dmaRelease[i] = d.Queue.Release
	}
	done := sim.NewBarrier("kernel-done", threads)
	var loops []loopThread
	if r.kind == KindLoopUnrolled {
		loops = make([]loopThread, threads)
		r.loop = r.loopCosts()
	}
	for t := 0; t < threads; t++ {
		var start, end int64
		var row int
		if r.kind == KindVertexDMA {
			// Vertex-parallel: equal ROW ranges per thread; the edge
			// range follows from the row pointers (no binary search,
			// but heavy rows are not split).
			rLo := t * r.a.NumVertices / threads
			rHi := (t + 1) * r.a.NumVertices / threads
			row, start, end = rLo, r.a.RowPtr[rLo], r.a.RowPtr[rHi]
		} else {
			// Edge-parallel: equal EDGE ranges (Algorithm 2).
			start = int64(t) * e / int64(threads)
			end = int64(t+1) * e / int64(threads)
			row = -1 // resolved by binary search at startup
		}
		slot := slots[t%len(slots)] // interleave threads across cores for balance
		core, mtp := slot.Core, slot.MTP
		name := fmt.Sprintf("t%d", t)
		if r.kind == KindLoopUnrolled {
			th := &loops[t]
			*th = loopThread{r: r, done: done, core: core, mtp: r.m.MTPOf(core, mtp), e: start, end: end}
			r.m.Eng.StartStep(&th.Proc, name, th)
			continue
		}
		r.m.Eng.Spawn(name, func(p *sim.Proc) {
			r.threadBody(p, core, mtp, row, start, end)
			arrive := p.Now()
			done.Wait(p)
			r.passedBarrier(p, arrive)
		})
	}
}

// passedBarrier books the wait of a thread that arrived at the
// kernel-done barrier at arrive and has just been released.
func (r *runner) passedBarrier(p *sim.Proc, arrive sim.Time) {
	r.bd.Barrier += p.Now() - arrive
	if r.tr != nil && p.Now() > arrive {
		r.tr.Span(p.Name, "barrier", arrive, p.Now())
	}
	if p.Now() > r.finish {
		r.finish = p.Now()
	}
}

// startRow is the row holding edge start, found by the binary search of
// Algorithm 2 line 4, and the number of dependent 8-byte probes the
// search costs (~log2|V|).
func (r *runner) startRow(start int64) (row int, probes int64) {
	row = sort.Search(r.a.NumVertices, func(i int) bool { return r.a.RowPtr[i+1] > start })
	probes = 1
	for n := r.a.NumVertices; n > 1; n >>= 1 {
		probes++
	}
	return row, probes
}

// probeBlock is the address block startup probe i reads.
func (r *runner) probeBlock(start, i int64) int64 {
	return (start + i*7919) % maxI64(1, int64(r.a.NumVertices))
}

// startupDone books a thread's startup phase, which began at t0.
func (r *runner) startupDone(p *sim.Proc, t0 sim.Time) {
	r.bd.Startup += p.Now() - t0
	if r.tr != nil {
		r.tr.Span(p.Name, "startup", t0, p.Now())
	}
}

// threadBody runs one DMA-kernel thread's share: edge range [start, end)
// starting at row `row` (-1 for the edge-parallel kernel, which
// binary-searches it).
func (r *runner) threadBody(p *sim.Proc, core, mtp, row int, start, end int64) {
	mtpSrv := r.m.MTPOf(core, mtp)

	t0 := p.Now()
	u := row
	if u < 0 {
		var probes int64
		u, probes = r.startRow(start)
		for i := int64(0); i < probes; i++ {
			r.blockingRead(p, core, r.probeBlock(start, i), r.burst(8))
		}
	} else {
		// Vertex-parallel startup: one row-pointer line fetch.
		r.blockingRead(p, core, int64(u), r.burst(8))
	}
	r.startupDone(p, t0)
	r.runDMA(p, core, mtpSrv, u, start, end)
}

// runDMA executes the optimized kernel: the sparse structure streams
// through the data cache (one blocking line fetch covers several edges)
// and each edge becomes a DMA descriptor.
func (r *runner) runDMA(p *sim.Proc, core int, mtpSrv *sim.Server, u int, start, end int64) {
	cfg := &r.m.Cfg
	nnzPerLine := int64(cfg.CacheLineBytes) / r.nnzBytesPerEdge()
	if nnzPerLine < 1 {
		nnzPerLine = 1
	}
	lineBase := start * r.nnzBytesPerEdge() / int64(cfg.CacheLineBytes)
	nnzUntil := start
	for eIdx := start; eIdx < end; eIdx++ {
		for eIdx >= r.a.RowPtr[u+1] {
			r.issueDMA(p, core, mtpSrv, int64(u), true)
			u++
		}
		if eIdx >= nnzUntil {
			t := p.Now()
			lineIdx := lineBase + (eIdx-start)/nnzPerLine
			comp := r.m.ReadBlocking(p.Now(), core, lineIdx, int64(cfg.CacheLineBytes))
			_, issueEnd := mtpSrv.Reserve(p.Now(), cfg.Cycle(2))
			p.SleepUntil(maxTime(comp, issueEnd))
			r.observeNNZ(p.Now() - t)
			r.bd.NNZWait += p.Now() - t
			nnzUntil = eIdx + nnzPerLine
		}
		r.issueDMA(p, core, mtpSrv, int64(r.a.Col[eIdx]), false)
	}
	r.issueDMA(p, core, mtpSrv, int64(u), true)
}

// issueDMA models the DMA-offload path for one edge (or one row
// write-back when writeBack is true): the thread spends a few cycles
// building the descriptor, blocks if the engine queue is full, and moves
// on; the engine pipelines descriptors and drives the memory system.
func (r *runner) issueDMA(p *sim.Proc, core int, mtpSrv *sim.Server, block int64, writeBack bool) {
	cfg := &r.m.Cfg
	eng := r.m.DMAs[core]
	// Descriptor setup on the pipeline.
	t0 := p.Now()
	_, issueEnd := mtpSrv.Reserve(p.Now(), cfg.Cycle(6))
	p.SleepUntil(issueEnd)
	r.bd.Compute += p.Now() - t0

	tq := p.Now()
	eng.Queue.Acquire(p)
	r.bd.DMAQueueWait += p.Now() - tq

	// Engine occupancy: a new descriptor can initiate every
	// DMAInitiation; the payload streams at slice bandwidth, so the
	// engine's service timeline advances by max(initiation, transfer).
	home := r.rowHome(block)
	payload := r.burst(r.featureRowBytes())
	// The engine streams the payload at the (possibly derated) slice
	// bandwidth, so both its occupancy and the bus reservation route
	// through the machine's fault-aware transfer time.
	occupancy := r.m.SliceTransferTime(home, payload)
	if occupancy < cfg.DMAInitiation {
		occupancy = cfg.DMAInitiation
	}
	_, svcEnd := eng.Server.Reserve(p.Now(), occupancy)
	_, busEnd := r.m.ReserveSlice(p.Now(), home, payload)
	// The descriptor slot frees once the engine and the memory bus have
	// streamed the payload; the remaining network/DRAM latency before
	// the copy-add data lands is tolerated by the engine's internal
	// pipelining (Section IV-C), so it delays completion but does not
	// hold a queue slot.
	served := maxTime(svcEnd, busEnd)
	comp := served + cfg.DMAOverhead
	if !writeBack {
		comp += r.m.AccessLatency(core, home)
	}
	if comp > r.finish {
		r.finish = comp
	}
	p.Engine().At(served, r.dmaRelease[core])
}

// blockingRead performs one stall-on-use memory round trip at the
// current simulated time, returning after the data is usable; it
// reports whether a step process parked for it.
func (r *runner) blockingRead(p *sim.Proc, core int, block, bytes int64) bool {
	return p.SleepUntil(r.m.ReadBlocking(p.Now(), core, block, bytes))
}

func (r *runner) observeNNZ(lat sim.Time) {
	r.nnzLatency += lat
	r.nnzReads++
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
