package bench

import (
	"context"
	"fmt"

	"piumagcn/internal/core"
	"piumagcn/internal/distributed"
	"piumagcn/internal/obs"
	"piumagcn/internal/ogb"
	"piumagcn/internal/partition"
	"piumagcn/internal/piuma"
	"piumagcn/internal/piuma/kernels"
	"piumagcn/internal/piuma/model"
	"piumagcn/internal/sim"
	"piumagcn/internal/textplot"
	"piumagcn/internal/xeon"
)

// This file implements the Section VI / VII extension studies:
// Graphite-style layer fusion, the heterogeneous-SoC what-if, the
// distributed-CPU (MPI) baseline against DGAS scaling, and the
// random-walk latency study behind sampling-based GNN methods.

func init() {
	register(Experiment{
		ID:          "ext-fusion",
		Title:       "Layer-fusion ablation (Section VII, Graphite)",
		Description: "Fused aggregation+update vs separate kernels on Xeon and PIUMA; the paper cites Graphite's 1.3x SpMM-side gain.",
		Run:         runExtFusion,
	})
	register(Experiment{
		ID:          "ext-hetero",
		Title:       "Heterogeneous SoC what-if (Section VI)",
		Description: "PIUMA dies paired with a dense accelerator: how GCN speedups change when the Dense MM bottleneck is lifted.",
		Run:         runExtHetero,
	})
	register(Experiment{
		ID:          "ext-distributed",
		Title:       "Distributed CPU vs DGAS scaling (Section V-A)",
		Description: "Message-passing SpMM on Xeon clusters vs PIUMA's partition-free DGAS scaling.",
		Run:         runExtDistributed,
	})
	register(Experiment{
		ID:          "ext-vertexpar",
		Title:       "Vertex- vs edge-parallel SpMM on PIUMA (Section II-C)",
		Description: "Simulated ablation of the work-division strategies: load imbalance on power-law graphs vs atomic/search overheads.",
		Run:         runExtVertexPar,
	})
	register(Experiment{
		ID:          "ext-randomwalk",
		Title:       "Random-walk latency study (Section VI)",
		Description: "Pointer-chasing walk throughput vs threads-per-MTP and DRAM latency on the simulated machine.",
		Run:         runExtRandomWalk,
	})
}

func runExtFusion(ctx context.Context, o Options) (*Report, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	r := &Report{ID: "ext-fusion", Title: "Layer-fusion ablation"}
	cpu := xeon.DefaultParams()
	node := model.DefaultNode()
	threads := cpu.PhysicalCores()
	const k = 256
	tb := &textplot.Table{Headers: []string{"workload", "platform", "unfused(s)", "fused(s)", "speedup"}}
	maxGain := 0.0
	for _, name := range []string{"products", "papers", "arxiv"} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d, err := ogb.ByName(name)
		if err != nil {
			return nil, err
		}
		w := xeon.Workload{V: d.V, E: d.E, Locality: d.Locality}
		unfusedCPU := cpu.DenseTime(d.V, k, k, threads) + cpu.SpMMTime(w, k, threads)
		fusedCPU := cpu.FusedLayerTime(w, k, k, threads)
		tb.AddRow(name, "xeon", fmt.Sprintf("%.4g", unfusedCPU), fmt.Sprintf("%.4g", fusedCPU),
			fmt.Sprintf("%.2fx", unfusedCPU/fusedCPU))

		dense, err := node.DenseTime(d.V, k, k)
		if err != nil {
			return nil, err
		}
		sp, err := node.SpMMTime(d.V, d.E, k)
		if err != nil {
			return nil, err
		}
		unfusedP := dense + sp
		fusedP, err := node.FusedLayerTime(d.V, d.E, k, k)
		if err != nil {
			return nil, err
		}
		gain := unfusedP / fusedP
		if gain > maxGain {
			maxGain = gain
		}
		tb.AddRow(name, "piuma", fmt.Sprintf("%.4g", unfusedP), fmt.Sprintf("%.4g", fusedP),
			fmt.Sprintf("%.2fx", gain))
	}
	r.Add(fmt.Sprintf("Fused vs unfused hidden layer, K=%d", k), tb.String())
	r.Note("Graphite reports ~1.3x on the SpMM side; our traffic model yields up to %.2fx on PIUMA", maxGain)
	return r, nil
}

func runExtHetero(ctx context.Context, o Options) (*Report, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	r := &Report{ID: "ext-hetero", Title: "Heterogeneous SoC what-if"}
	cpu := core.NewCPU()
	baseline := core.NewPIUMA()
	hetero := core.NewPIUMA()
	// Pair the PIUMA dies with a modest dense accelerator (a quarter of
	// an A100's dense rate) as Section VI proposes.
	hetero.Node.DenseGFLOPS = 2500 * 4

	const k = 256
	tb := &textplot.Table{Headers: []string{"workload", "PIUMA x", "PIUMA+dense x", "dense share before", "after"}}
	for _, name := range []string{"arxiv", "mag", "products", "citation2", "papers"} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d, err := ogb.ByName(name)
		if err != nil {
			return nil, err
		}
		w := core.FromDataset(d)
		m := core.DefaultModel(k)
		cb, err := cpu.RunGCN(w, m)
		if err != nil {
			return nil, err
		}
		pb, err := baseline.RunGCN(w, m)
		if err != nil {
			return nil, err
		}
		hb, err := hetero.RunGCN(w, m)
		if err != nil {
			return nil, err
		}
		ps, err := core.Speedup(cb, pb)
		if err != nil {
			return nil, err
		}
		hs, err := core.Speedup(cb, hb)
		if err != nil {
			return nil, err
		}
		tb.AddRow(name,
			fmt.Sprintf("%.2f", ps), fmt.Sprintf("%.2f", hs),
			fmt.Sprintf("%.0f%%", 100*pb.Share(core.PhaseDense)),
			fmt.Sprintf("%.0f%%", 100*hb.Share(core.PhaseDense)))
	}
	r.Add(fmt.Sprintf("GCN speedup vs Xeon at K=%d", k), tb.String())
	r.Note("lifting the dense bottleneck restores large-K speedups, confirming Section VI's heterogeneous-SoC direction")
	return r, nil
}

func runExtDistributed(ctx context.Context, o Options) (*Report, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	r := &Report{ID: "ext-distributed", Title: "Distributed CPU vs DGAS scaling"}
	d, err := ogb.ByName("papers")
	if err != nil {
		return nil, err
	}
	w := xeon.Workload{V: d.V, E: d.E, Locality: d.Locality}
	const k = 256
	base, err := distributed.DefaultCluster(1).SpMMTime(w, k)
	if err != nil {
		return nil, err
	}
	nodeCounts := []int{1, 2, 4, 8, 16, 32}
	if o.Quick {
		nodeCounts = []int{1, 4, 16}
	}
	tb := &textplot.Table{Headers: []string{"nodes", "MPI time(s)", "MPI speedup", "MPI efficiency", "DGAS time(s)", "DGAS speedup"}}
	for _, n := range nodeCounts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c := distributed.DefaultCluster(n)
		tn, err := c.SpMMTime(w, k)
		if err != nil {
			return nil, err
		}
		eff, err := c.ParallelEfficiency(w, k)
		if err != nil {
			return nil, err
		}
		dgas, err := distributed.PIUMAScaledTime(base, n)
		if err != nil {
			return nil, err
		}
		tb.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.4g", tn), fmt.Sprintf("%.2fx", base/tn), fmt.Sprintf("%.0f%%", 100*eff),
			fmt.Sprintf("%.4g", dgas), fmt.Sprintf("%.2fx", base/dgas))
	}
	r.Add(fmt.Sprintf("papers SpMM at K=%d, scaling out", k), tb.String())

	// Ground the cut-fraction parameter by actually partitioning a
	// synthetic stand-in with the internal/partition methods.
	g, err := simGraph(o)
	if err != nil {
		return nil, err
	}
	cutTb := &textplot.Table{Headers: []string{"parts", "random cut", "range cut", "bfs-grow cut", "model cut"}}
	for _, n := range []int{2, 8, 32} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", n)}
		for _, m := range []partition.Method{partition.Random, partition.Range, partition.BFSGrow} {
			res, err := partition.Partition(g, n, m)
			if err != nil {
				return nil, err
			}
			st, err := partition.Evaluate(g, res)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.0f%%", 100*st.CutFraction))
		}
		row = append(row, fmt.Sprintf("%.0f%%", 100*distributed.DefaultCluster(n).EdgeCutFraction()))
		cutTb.AddRow(row...)
	}
	r.Add("Measured edge cuts on the products-shaped stand-in", cutTb.String())
	r.Note("MPI efficiency decays with the edge cut; the DGAS abstraction scales linearly without partitioning (Key Takeaway 1, Section V-A)")
	r.Note("power-law RMAT stand-ins cut near the random worst case under every partitioner — exactly why partitioned scaling is painful for such graphs; the cluster model's gentler cut curve represents community-structured real-world graphs (see internal/partition tests)")
	return r, nil
}

func runExtVertexPar(ctx context.Context, o Options) (*Report, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	g, err := simGraph(o)
	if err != nil {
		return nil, err
	}
	mark := obs.MarkFrom(ctx)
	r := &Report{ID: "ext-vertexpar", Title: "Vertex- vs edge-parallel SpMM on PIUMA"}
	coreSet := []int{4, 16}
	if o.Quick {
		coreSet = []int{8}
	}
	dims := []int{8, 256}
	var pts []point
	for _, c := range coreSet {
		for _, k := range dims {
			cfg := piuma.DefaultConfig()
			cfg.Cores = c
			pts = append(pts,
				point{label: fmt.Sprintf("ext-vertexpar edge c=%d K=%d", c, k), cfg: cfg, kind: kernels.KindDMA, k: k},
				point{label: fmt.Sprintf("ext-vertexpar vertex c=%d K=%d", c, k), cfg: cfg, kind: kernels.KindVertexDMA, k: k})
		}
	}
	res, err := sweepKernels(ctx, g, pts)
	if err != nil {
		return nil, err
	}
	tb := &textplot.Table{Headers: []string{"cores", "K", "edge-par GF", "vertex-par GF", "edge/vertex", "edge barrier", "vertex barrier"}}
	for _, c := range coreSet {
		for _, k := range dims {
			edge, vertex := res[0], res[1]
			res = res[2:]
			tb.AddRow(fmt.Sprintf("%d", c), fmt.Sprintf("%d", k),
				fmt.Sprintf("%.1f", edge.GFLOPS), fmt.Sprintf("%.1f", vertex.GFLOPS),
				fmt.Sprintf("%.2fx", edge.GFLOPS/vertex.GFLOPS),
				fmt.Sprintf("%.0f%%", 100*float64(edge.Breakdown.Barrier)/float64(edge.Breakdown.Total())),
				fmt.Sprintf("%.0f%%", 100*float64(vertex.Breakdown.Barrier)/float64(vertex.Breakdown.Total())))
		}
	}
	r.Add("products-shaped (skewed) graph", tb.String())
	r.Note("edge-parallel wins on skewed graphs because equal edge ranges balance load; the barrier column shows vertex-parallel threads idling behind hub rows (Section II-C/IV-B)")
	attachProfile(ctx, r, mark)
	return r, nil
}

func runExtRandomWalk(ctx context.Context, o Options) (*Report, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	g, err := simGraph(o)
	if err != nil {
		return nil, err
	}
	mark := obs.MarkFrom(ctx)
	r := &Report{ID: "ext-randomwalk", Title: "Random-walk latency study"}
	steps := 30
	threads := []int{1, 2, 4, 8, 16}
	if o.Quick {
		threads = []int{1, 16}
		steps = 10
	}
	var pts []point
	for _, th := range threads {
		cfg := piuma.DefaultConfig()
		cfg.Cores = 4
		cfg.ThreadsPerMTP = th
		slow := cfg
		slow.DRAMLatency = 720 * sim.Nanosecond
		pts = append(pts,
			point{label: fmt.Sprintf("ext-randomwalk thr=%d lat=45ns", th), cfg: cfg, k: steps},
			point{label: fmt.Sprintf("ext-randomwalk thr=%d lat=720ns", th), cfg: slow, k: steps})
	}
	res, err := sweepWalks(ctx, g, pts)
	if err != nil {
		return nil, err
	}
	tb := &textplot.Table{Headers: []string{"thr/MTP", "walkers", "Msteps/s @45ns", "@720ns", "retained"}}
	for i, th := range threads {
		fast, lat := res[2*i], res[2*i+1]
		tb.AddRow(fmt.Sprintf("%d", th), fmt.Sprintf("%d", fast.Walkers),
			fmt.Sprintf("%.2f", fast.StepsPerSecond/1e6),
			fmt.Sprintf("%.2f", lat.StepsPerSecond/1e6),
			fmt.Sprintf("%.0f%%", 100*lat.StepsPerSecond/fast.StepsPerSecond))
	}
	r.Add("Aggregate walk throughput on a 4-core system", tb.String())
	r.Note("walk throughput comes from concurrent walkers hiding dependent-read latency — the property that makes PIUMA attractive for sampling-based GNN training (Section VI)")
	attachProfile(ctx, r, mark)
	return r, nil
}
