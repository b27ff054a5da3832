// Package piumagcn is a from-scratch Go reproduction of "Characterizing
// the Scalability of Graph Convolutional Networks on Intel PIUMA"
// (Adiletta et al., ISPASS 2023).
//
// The library implements the paper's full system stack:
//
//   - internal/graph, internal/rmat, internal/ogb: the sparse-matrix
//     substrate, the SNAP-style RMAT generators and a synthetic Open
//     Graph Benchmark catalogue (Table I).
//   - internal/spmm, internal/tensor: functional SpMM and dense-MM
//     kernels (Algorithm 1 numerics) used by the runnable GCN.
//   - internal/sim, internal/piuma, internal/piuma/kernels: a
//     discrete-event PIUMA machine model — MTP threads with one
//     in-flight memory operation, per-core DRAM slices, a distributed
//     global address space, per-core DMA engines — running the paper's
//     loop-unrolled and DMA SpMM kernels (Section IV).
//   - internal/amodel: the bandwidth-bound analytical model
//     (Equations 1-5).
//   - internal/xeon, internal/gpu, internal/piuma/model: calibrated
//     performance models of the Xeon 8380 node, the A100-40GB and the
//     PIUMA node (Sections III and V).
//   - internal/core: the characterization layer — GCN models,
//     execution-time breakdowns, platform comparison, the Figure 2
//     contour methodology, and a real forward-inference path.
//   - internal/bench + cmd/piumabench: runners that regenerate Table I
//     and Figures 2-10 (plus the Section VI/VII extension studies).
//   - internal/serve + cmd/piumaserve: the characterization service —
//     a JSON HTTP API over a bounded job queue and worker pool with
//     request deduplication and a content-addressed result cache.
//
// See README.md for a tour and EXPERIMENTS.md for the paper-vs-measured
// index.
package piumagcn
