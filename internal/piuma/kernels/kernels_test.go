package kernels

import (
	"sync"
	"testing"

	"piumagcn/internal/amodel"
	"piumagcn/internal/graph"
	"piumagcn/internal/ogb"
	"piumagcn/internal/piuma"
	"piumagcn/internal/rmat"
	"piumagcn/internal/sim"
	"piumagcn/internal/stats"
)

var (
	graphOnce sync.Once
	smallG    *graph.CSR // scale 11, ~16k edges: fast sweeps
	midG      *graph.CSR // scale 13, ~110k edges: fidelity checks
)

func testGraphs(t testing.TB) (*graph.CSR, *graph.CSR) {
	t.Helper()
	graphOnce.Do(func() {
		var err error
		smallG, err = rmat.GenerateCSR(rmat.PowerLaw(11, 8, 1))
		if err != nil {
			panic(err)
		}
		midG, err = rmat.GenerateCSR(rmat.PowerLaw(13, 16, 1))
		if err != nil {
			panic(err)
		}
	})
	return smallG, midG
}

func modelGFLOPS(cfg piuma.Config, g *graph.CSR, k int) float64 {
	prob := amodel.Problem{V: int64(g.NumVertices), E: g.NumEdges(), K: int64(k), W: amodel.DefaultWidths()}
	bw := cfg.AggregateBandwidth()
	gf, err := prob.GFLOPS(amodel.Bandwidth{Read: bw, Write: bw})
	if err != nil {
		panic(err)
	}
	return gf
}

func mustRun(t testing.TB, kind Kind, cfg piuma.Config, g *graph.CSR, k int) Result {
	t.Helper()
	r, err := Run(kind, cfg, g, k)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunRejectsBadInputs(t *testing.T) {
	g, _ := testGraphs(t)
	cfg := piuma.DefaultConfig()
	if _, err := Run(Kind("bogus"), cfg, g, 8); err == nil {
		t.Fatal("expected error for unknown kernel")
	}
	if _, err := Run(KindDMA, cfg, g, 0); err == nil {
		t.Fatal("expected error for K=0")
	}
	bad := cfg
	bad.Cores = 0
	if _, err := Run(KindDMA, bad, g, 8); err == nil {
		t.Fatal("expected error for invalid config")
	}
	broken := &graph.CSR{NumVertices: 2, RowPtr: []int64{0, 1}, Col: []int32{0}, Val: []float64{1}}
	if _, err := Run(KindDMA, cfg, broken, 8); err == nil {
		t.Fatal("expected error for invalid CSR")
	}
}

func TestEmptyGraphCompletesInstantly(t *testing.T) {
	g, err := graph.FromCOO(&graph.COO{NumVertices: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{KindDMA, KindLoopUnrolled} {
		r := mustRun(t, kind, piuma.DefaultConfig(), g, 8)
		if r.Elapsed != 0 || r.GFLOPS != 0 {
			t.Fatalf("%s: empty graph ran for %v", kind, r.Elapsed)
		}
	}
}

func TestFewerEdgesThanThreads(t *testing.T) {
	g, err := graph.FromCOO(&graph.COO{NumVertices: 4, Edges: []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 2, Dst: 3, Weight: 1}, {Src: 3, Dst: 0, Weight: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{KindDMA, KindLoopUnrolled} {
		r := mustRun(t, kind, piuma.DefaultConfig(), g, 16)
		if r.Elapsed <= 0 {
			t.Fatalf("%s: no time elapsed", kind)
		}
	}
}

func TestDeterminism(t *testing.T) {
	g, _ := testGraphs(t)
	cfg := piuma.DefaultConfig()
	cfg.Cores = 4
	a := mustRun(t, KindDMA, cfg, g, 64)
	b := mustRun(t, KindDMA, cfg, g, 64)
	if a.Elapsed != b.Elapsed || a.Events != b.Events || a.GFLOPS != b.GFLOPS {
		t.Fatalf("nondeterministic simulation: %+v vs %+v", a, b)
	}
}

// Figure 5: the DMA kernel stays within 80-90%+ of the bandwidth-bound
// analytical model across core counts ("within 85 percent", "up to 88%
// of theoretical peak").
func TestDMATracksAnalyticalModel(t *testing.T) {
	_, g := testGraphs(t)
	for _, cores := range []int{1, 4, 16} {
		cfg := piuma.DefaultConfig()
		cfg.Cores = cores
		r := mustRun(t, KindDMA, cfg, g, 64)
		ratio := r.GFLOPS / modelGFLOPS(cfg, g, 64)
		if ratio < 0.75 || ratio > 1.02 {
			t.Fatalf("cores=%d: DMA/model = %.2f, want [0.75, 1.02]", cores, ratio)
		}
	}
}

// Figure 5: the loop-unrolled kernel collapses below ~40-50% of the
// model at high core counts while DMA keeps scaling.
func TestLoopUnrolledCollapsesAtScale(t *testing.T) {
	g, _ := testGraphs(t)
	cfg := piuma.DefaultConfig()
	cfg.Cores = 16
	lu := mustRun(t, KindLoopUnrolled, cfg, g, 256)
	dma := mustRun(t, KindDMA, cfg, g, 256)
	model := modelGFLOPS(cfg, g, 256)
	if r := lu.GFLOPS / model; r > 0.5 {
		t.Fatalf("loop-unrolled at 16 cores = %.2f of model, want < 0.5", r)
	}
	if lu.GFLOPS >= dma.GFLOPS {
		t.Fatalf("loop-unrolled (%.1f GF) should trail DMA (%.1f GF)", lu.GFLOPS, dma.GFLOPS)
	}
}

// Section IV-B: average NNZ-read latency grows several-fold from 1 to
// many cores (the paper reports ~6x at 32 cores).
func TestNNZLatencyGrowsWithCores(t *testing.T) {
	g, _ := testGraphs(t)
	cfg := piuma.DefaultConfig()
	cfg.Cores = 1
	one := mustRun(t, KindLoopUnrolled, cfg, g, 256)
	cfg.Cores = 32
	many := mustRun(t, KindLoopUnrolled, cfg, g, 256)
	ratio := float64(many.AvgNNZLatency) / float64(one.AvgNNZLatency)
	if ratio < 3 || ratio > 12 {
		t.Fatalf("NNZ latency 32c/1c = %.1fx, want 3-12x", ratio)
	}
}

// Figure 6 (bottom) / Key Takeaway 2: with 16 threads per MTP the DMA
// kernel tolerates DRAM latency far beyond 360 ns.
func TestLatencyToleranceFullThreads(t *testing.T) {
	g, _ := testGraphs(t)
	base := piuma.DefaultConfig()
	base.Cores = 8
	fast := mustRun(t, KindDMA, base, g, 256)
	slow := base
	slow.DRAMLatency = 720 * sim.Nanosecond
	tolerant := mustRun(t, KindDMA, slow, g, 256)
	if ratio := tolerant.GFLOPS / fast.GFLOPS; ratio < 0.85 {
		t.Fatalf("720ns/45ns throughput = %.2f, want >= 0.85 (latency tolerance)", ratio)
	}
}

// Figure 7: with one thread per MTP and a small embedding dimension the
// latency tolerance is lost...
func TestLatencySensitivityOneThreadSmallK(t *testing.T) {
	g, _ := testGraphs(t)
	base := piuma.DefaultConfig()
	base.Cores = 8
	base.ThreadsPerMTP = 1
	fast := mustRun(t, KindDMA, base, g, 8)
	slow := base
	slow.DRAMLatency = 720 * sim.Nanosecond
	degraded := mustRun(t, KindDMA, slow, g, 8)
	if ratio := degraded.GFLOPS / fast.GFLOPS; ratio > 0.6 {
		t.Fatalf("1-thread K=8 720ns/45ns = %.2f, want < 0.6 (tolerance lost)", ratio)
	}
}

// ...while it is retained for large embedding dimensions even with one
// thread (the DMA requests are big enough to cover the NNZ latency).
func TestLatencyToleranceOneThreadLargeK(t *testing.T) {
	g, _ := testGraphs(t)
	base := piuma.DefaultConfig()
	base.Cores = 8
	base.ThreadsPerMTP = 1
	fast := mustRun(t, KindDMA, base, g, 256)
	slow := base
	slow.DRAMLatency = 720 * sim.Nanosecond
	tolerant := mustRun(t, KindDMA, slow, g, 256)
	if ratio := tolerant.GFLOPS / fast.GFLOPS; ratio < 0.8 {
		t.Fatalf("1-thread K=256 720ns/45ns = %.2f, want >= 0.8", ratio)
	}
}

// Figure 6 (top): GFLOPS scales linearly with DRAM-slice bandwidth.
func TestBandwidthLinearity(t *testing.T) {
	g, _ := testGraphs(t)
	var xs, ys []float64
	for _, mult := range []float64{0.25, 0.5, 1, 2} {
		cfg := piuma.DefaultConfig()
		cfg.Cores = 8
		cfg.SliceBandwidth *= mult
		r := mustRun(t, KindDMA, cfg, g, 256)
		xs = append(xs, mult)
		ys = append(ys, r.GFLOPS)
	}
	_, slope, r2, err := stats.LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if slope <= 0 || r2 < 0.98 {
		t.Fatalf("bandwidth scaling: slope=%v r2=%v, want positive and r2 >= 0.98", slope, r2)
	}
}

// The simulated slice traffic must match the analytical byte counts
// within the slack explained by burst rounding, startup probes and
// write-back granularity.
func TestTrafficConservation(t *testing.T) {
	_, g := testGraphs(t)
	cfg := piuma.DefaultConfig()
	cfg.Cores = 8
	r := mustRun(t, KindDMA, cfg, g, 64)
	prob := amodel.Problem{V: r.V, E: r.E, K: 64, W: amodel.DefaultWidths()}
	modelBytes := float64(prob.CSRBytes() + prob.FeatureBytes() + prob.WriteBytes())
	ratio := r.DeliveredBytes / modelBytes
	if ratio < 0.9 || ratio > 1.5 {
		t.Fatalf("delivered/model bytes = %.2f, want [0.9, 1.5]", ratio)
	}
}

// The DMA kernel keeps the memory system busy (Key Takeaway 1): average
// slice utilization stays high when the problem is large enough.
func TestDMASaturatesBandwidth(t *testing.T) {
	_, g := testGraphs(t)
	cfg := piuma.DefaultConfig()
	cfg.Cores = 4
	r := mustRun(t, KindDMA, cfg, g, 256)
	if r.AvgSliceUtilization < 0.85 {
		t.Fatalf("DMA slice utilization = %.2f, want >= 0.85", r.AvgSliceUtilization)
	}
}

func TestBreakdownConsistency(t *testing.T) {
	g, _ := testGraphs(t)
	cfg := piuma.DefaultConfig()
	cfg.Cores = 4
	for _, kind := range []Kind{KindDMA, KindLoopUnrolled} {
		r := mustRun(t, kind, cfg, g, 64)
		b := r.Breakdown
		for name, v := range map[string]sim.Time{
			"nnz": b.NNZWait, "feature": b.FeatureWait, "dmaq": b.DMAQueueWait,
			"compute": b.Compute, "startup": b.Startup, "barrier": b.Barrier,
		} {
			if v < 0 {
				t.Fatalf("%s: negative %s component: %v", kind, name, v)
			}
		}
		if b.NNZWait == 0 {
			t.Fatalf("%s: NNZ wait should be nonzero", kind)
		}
		if b.Total() <= 0 {
			t.Fatalf("%s: empty breakdown", kind)
		}
		if kind == KindLoopUnrolled && b.FeatureWait == 0 {
			t.Fatal("loop-unrolled: feature wait should be nonzero")
		}
		if kind == KindDMA && b.FeatureWait != 0 {
			t.Fatal("dma: threads never stall on feature reads")
		}
	}
}

// Figure 8 (right): the share of time attributable to NNZ reads shrinks
// as the embedding dimension grows (2 NNZ per 8 vs per 256 DMA bytes).
func TestNNZShareShrinksWithK(t *testing.T) {
	g, _ := testGraphs(t)
	cfg := piuma.DefaultConfig()
	cfg.Cores = 8
	share := func(k int) float64 {
		r := mustRun(t, KindDMA, cfg, g, k)
		return float64(r.Breakdown.NNZWait) / float64(r.Breakdown.Total())
	}
	s8, s256 := share(8), share(256)
	if s8 <= s256 {
		t.Fatalf("NNZ share K=8 (%.3f) should exceed K=256 (%.3f)", s8, s256)
	}
}

func BenchmarkDMAKernel(b *testing.B) {
	g, _ := testGraphs(b)
	cfg := piuma.DefaultConfig()
	cfg.Cores = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(KindDMA, cfg, g, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoopUnrolledKernel(b *testing.B) {
	g, _ := testGraphs(b)
	cfg := piuma.DefaultConfig()
	cfg.Cores = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(KindLoopUnrolled, cfg, g, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoopKernelProducts is one call of the loop-unrolled kernel
// at the costliest Figure 5 point (8 cores, K=256) on the products-shaped
// graph at the 2^13-edge cap, seed 7: chains of dependent stall-on-use
// round trips, so nearly all its time is event dispatch and step
// activations. It reports the engine's cost per event.
func BenchmarkLoopKernelProducts(b *testing.B) {
	products, err := ogb.ByName("products")
	if err != nil {
		b.Fatal(err)
	}
	g, _, err := ogb.Generate(products, ogb.GenerateOptions{MaxEdges: 1 << 13, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	cfg := piuma.DefaultConfig()
	cfg.Cores = 8
	var events int64
	for b.Loop() {
		r, err := Run(KindLoopUnrolled, cfg, g, 256)
		if err != nil {
			b.Fatal(err)
		}
		events += r.Events
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// Section II-C trade-off: vertex-parallel division avoids the binary
// search and shared-row atomics but suffers load imbalance on power-law
// graphs — the edge-parallel DMA kernel must win, with the gap showing
// up as barrier (idle) time.
func TestVertexParallelLoadImbalance(t *testing.T) {
	g, _ := testGraphs(t) // power-law RMAT: heavy hub rows
	cfg := piuma.DefaultConfig()
	cfg.Cores = 8
	edge := mustRun(t, KindDMA, cfg, g, 64)
	vertex := mustRun(t, KindVertexDMA, cfg, g, 64)
	if vertex.GFLOPS >= edge.GFLOPS {
		t.Fatalf("vertex-parallel (%.1f GF) should trail edge-parallel (%.1f GF) on a skewed graph",
			vertex.GFLOPS, edge.GFLOPS)
	}
	edgeBarrier := float64(edge.Breakdown.Barrier) / float64(edge.Breakdown.Total())
	vertexBarrier := float64(vertex.Breakdown.Barrier) / float64(vertex.Breakdown.Total())
	if vertexBarrier <= edgeBarrier {
		t.Fatalf("vertex-parallel barrier share %.2f should exceed edge-parallel %.2f",
			vertexBarrier, edgeBarrier)
	}
}

// On a uniform graph the two divisions are nearly equivalent.
func TestVertexParallelUniformGraphClose(t *testing.T) {
	g, err := rmat.GenerateCSR(rmat.Uniform(11, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := piuma.DefaultConfig()
	cfg.Cores = 8
	edge := mustRun(t, KindDMA, cfg, g, 64)
	vertex := mustRun(t, KindVertexDMA, cfg, g, 64)
	if ratio := vertex.GFLOPS / edge.GFLOPS; ratio < 0.8 {
		t.Fatalf("uniform-graph vertex-parallel at %.2f of edge-parallel, want >= 0.8", ratio)
	}
}

// TestKernelAllocationsScaleWithThreads bounds the allocations of one
// kernel run by the thread count: processes, names and machine set-up
// allocate, but the per-edge path (sleeps, DMA descriptors, queue
// waits) must not. The larger graph has 8x the edges of the smaller
// one and the same bound. A loop-unrolled thread is a step process (a
// name, a Proc and its step, about 240 allocations in all at 64
// threads); a DMA thread is a coroutine, whose start-up allocates
// several objects more.
func TestKernelAllocationsScaleWithThreads(t *testing.T) {
	small, mid := testGraphs(t)
	cfg := piuma.DefaultConfig()
	cfg.Cores = 1
	threads := cfg.Cores * cfg.MTPsPerCore * cfg.ThreadsPerMTP
	for _, c := range []struct {
		kind  Kind
		limit float64
	}{
		{KindLoopUnrolled, float64(4*threads + 64)},
		{KindDMA, float64(32*threads + 256)},
	} {
		kind, limit := c.kind, c.limit
		for _, g := range []*graph.CSR{small, mid} {
			allocs := testing.AllocsPerRun(1, func() {
				if _, err := Run(kind, cfg, g, 8); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > limit {
				t.Errorf("%s on %d edges, %d threads: %.0f allocations per run, want <= %.0f",
					kind, g.NumEdges(), threads, allocs, limit)
			}
		}
	}
}
