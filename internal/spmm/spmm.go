// Package spmm implements the functional SpMM kernels of the paper:
// H_out = Ã · H_in with a sparse |V|×|V| matrix and dense |V|×K feature
// matrices (Algorithm 1). Two strategies are provided, mirroring
// Section V-A:
//
//   - Serial: the reference used by every property test.
//   - VertexParallel: rows are distributed across workers with dynamic
//     load balancing — the optimized Xeon implementation of Section V-A
//     ("vertex-parallel implementation with dynamic load balancing using
//     OpenMP").
//
// These kernels compute real numerics; the timing behaviour on PIUMA,
// including Algorithm 2's edge-parallel split, is simulated separately
// by internal/piuma/kernels.
package spmm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"piumagcn/internal/graph"
	"piumagcn/internal/tensor"
)

// checkShapes validates that a (|V|×|V|) times h (|V|×K) is well formed.
func checkShapes(a *graph.CSR, h *tensor.Matrix) error {
	if a.NumVertices != h.Rows {
		return fmt.Errorf("spmm: adjacency is %d vertices but features have %d rows", a.NumVertices, h.Rows)
	}
	return nil
}

// Serial computes H_out = A·H_in with a single thread. It follows
// Algorithm 1 directly: for each non-zero (u, v), accumulate
// A[u,v] * H_in[v, :] into H_out[u, :].
func Serial(a *graph.CSR, h *tensor.Matrix) (*tensor.Matrix, error) {
	if err := checkShapes(a, h); err != nil {
		return nil, err
	}
	out := tensor.New(h.Rows, h.Cols)
	for u := 0; u < a.NumVertices; u++ {
		cols, vals := a.Row(u)
		orow := out.Row(u)
		for i, v := range cols {
			w := vals[i]
			hrow := h.Row(int(v))
			for j := range orow {
				orow[j] += w * hrow[j]
			}
		}
	}
	return out, nil
}

// VertexParallel computes H_out = A·H_in with rows distributed across
// workers (0 = GOMAXPROCS) using a shared atomic work counter for
// dynamic load balancing, the analogue of OpenMP's schedule(dynamic).
// Each output row is owned by exactly one worker, so no atomics are
// needed on the data itself — the trade-off discussed in Section IV-B.
func VertexParallel(a *graph.CSR, h *tensor.Matrix, workers int) (*tensor.Matrix, error) {
	if err := checkShapes(a, h); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := tensor.New(h.Rows, h.Cols)
	n := a.NumVertices
	if n == 0 {
		return out, nil
	}
	// Chunked dynamic scheduling: grabbing one row at a time would
	// serialize on the counter for skewed graphs; 64 rows per grab is a
	// good balance for the graph sizes in the suite.
	const chunk = 64
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(atomic.AddInt64(&next, chunk)) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for u := lo; u < hi; u++ {
					cols, vals := a.Row(u)
					orow := out.Row(u)
					for i, v := range cols {
						wgt := vals[i]
						hrow := h.Row(int(v))
						for j := range orow {
							orow[j] += wgt * hrow[j]
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	return out, nil
}
