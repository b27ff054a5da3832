package spmm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"piumagcn/internal/graph"
	"piumagcn/internal/rmat"
	"piumagcn/internal/tensor"
)

func buildGraph(t testing.TB, scale, ef int, seed int64) *graph.CSR {
	t.Helper()
	m, err := rmat.GenerateCSR(rmat.PowerLaw(scale, ef, seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSerialKnownValues(t *testing.T) {
	// A = [[0, 2], [3, 0]]; H = [[1, 10], [2, 20]].
	a, err := graph.FromCOO(&graph.COO{NumVertices: 2, Edges: []graph.Edge{
		{Src: 0, Dst: 1, Weight: 2}, {Src: 1, Dst: 0, Weight: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	h := &tensor.Matrix{Rows: 2, Cols: 2, Data: []float64{1, 10, 2, 20}}
	out, err := Serial(a, h)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 40, 3, 30}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("out[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
}

func TestShapeMismatch(t *testing.T) {
	a, _ := graph.FromCOO(&graph.COO{NumVertices: 3})
	h := tensor.New(4, 2)
	if _, err := Serial(a, h); err == nil {
		t.Fatal("expected shape error")
	}
	if _, err := VertexParallel(a, h, 2); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestEmptyGraph(t *testing.T) {
	a, _ := graph.FromCOO(&graph.COO{NumVertices: 5})
	h := tensor.NewRandom(5, 3, 1, 1)
	for name, f := range kernels() {
		out, err := f(a, h)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tensor.MaxAbs(out) != 0 {
			t.Fatalf("%s: edgeless graph produced non-zero output", name)
		}
	}
}

func TestZeroVertices(t *testing.T) {
	a, _ := graph.FromCOO(&graph.COO{NumVertices: 0})
	h := tensor.New(0, 4)
	for name, f := range kernels() {
		if _, err := f(a, h); err != nil {
			t.Fatalf("%s on empty: %v", name, err)
		}
	}
}

func kernels() map[string]func(*graph.CSR, *tensor.Matrix) (*tensor.Matrix, error) {
	return map[string]func(*graph.CSR, *tensor.Matrix) (*tensor.Matrix, error){
		"serial": Serial,
		"vertex2": func(a *graph.CSR, h *tensor.Matrix) (*tensor.Matrix, error) {
			return VertexParallel(a, h, 2)
		},
		"vertex8": func(a *graph.CSR, h *tensor.Matrix) (*tensor.Matrix, error) {
			return VertexParallel(a, h, 8)
		},
	}
}

// VertexParallel matches Serial on an RMAT graph, on one huge row
// beside a short one (a skewed graph whose heavy row lands in the first
// 64-row chunk), and on a graph with fewer rows and edges than workers.
func TestParallelMatchesSerialRMAT(t *testing.T) {
	var skewed []graph.Edge
	for i := 0; i < 100; i++ {
		skewed = append(skewed, graph.Edge{Src: 0, Dst: int32(i), Weight: float64(i + 1)})
	}
	skewed = append(skewed, graph.Edge{Src: 50, Dst: 3, Weight: 2})
	tiny := []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 2, Dst: 0, Weight: 1}}
	inputs := []struct {
		name string
		a    *graph.CSR
		k    int
		tol  float64
	}{
		{"rmat", buildGraph(t, 9, 8, 42), 16, 1e-9},
		{"skewed_rows", mustCSR(t, 100, skewed), 5, 1e-9},
		{"more_workers_than_edges", mustCSR(t, 3, tiny), 4, 1e-12},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			h := tensor.NewRandom(in.a.NumVertices, in.k, 1, 7)
			want, err := Serial(in.a, h)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1, 2, 3, 7, 8, 13, 16, 64, 101} {
				got, err := VertexParallel(in.a, h, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !tensor.AlmostEqual(got, want, in.tol) {
					t.Fatalf("workers=%d: result differs from serial", workers)
				}
			}
		})
	}
}

func mustCSR(t *testing.T, n int, edges []graph.Edge) *graph.CSR {
	t.Helper()
	a, err := graph.FromCOO(&graph.COO{NumVertices: n, Edges: edges})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// Property: VertexParallel agrees with Serial on random graphs, feature
// widths and worker counts.
func TestQuickKernelsAgree(t *testing.T) {
	f := func(seed int64, nRaw, kRaw, wRaw uint8) bool {
		n := int(nRaw)%60 + 1
		k := int(kRaw)%17 + 1
		workers := int(wRaw)%9 + 1
		rng := rand.New(rand.NewSource(seed))
		ne := rng.Intn(4 * n)
		edges := make([]graph.Edge, ne)
		for i := range edges {
			edges[i] = graph.Edge{
				Src:    int32(rng.Intn(n)),
				Dst:    int32(rng.Intn(n)),
				Weight: rng.NormFloat64(),
			}
		}
		a, err := graph.FromCOO(&graph.COO{NumVertices: n, Edges: edges})
		if err != nil {
			return false
		}
		h := tensor.NewRandom(n, k, 1, seed)
		want, err := Serial(a, h)
		if err != nil {
			return false
		}
		vp, err := VertexParallel(a, h, workers)
		return err == nil && tensor.AlmostEqual(vp, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: SpMM is linear — A·(xH) == x(A·H).
func TestQuickLinearity(t *testing.T) {
	f := func(seed int64) bool {
		a := buildGraph(t, 6, 4, seed)
		h := tensor.NewRandom(a.NumVertices, 8, 1, seed+1)
		scaled := h.Clone()
		for i := range scaled.Data {
			scaled.Data[i] *= 3
		}
		out1, _ := Serial(a, scaled)
		out2, _ := Serial(a, h)
		for i := range out2.Data {
			out2.Data[i] *= 3
		}
		return tensor.AlmostEqual(out1, out2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSpMMSerial(b *testing.B) {
	a, _ := rmat.GenerateCSR(rmat.PowerLaw(12, 8, 1))
	h := tensor.NewRandom(a.NumVertices, 64, 1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Serial(a, h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpMMVertexParallel(b *testing.B) {
	a, _ := rmat.GenerateCSR(rmat.PowerLaw(12, 8, 1))
	h := tensor.NewRandom(a.NumVertices, 64, 1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := VertexParallel(a, h, 0); err != nil {
			b.Fatal(err)
		}
	}
}
