package core

import (
	"math"
	"testing"
	"testing/quick"

	"piumagcn/internal/graph"
	"piumagcn/internal/ogb"
	"piumagcn/internal/rmat"
	"piumagcn/internal/tensor"
)

func TestBreakdownArithmetic(t *testing.T) {
	b := Breakdown{PhaseSpMM: 3, PhaseDense: 1}
	if b.Total() != 4 {
		t.Fatalf("Total = %v", b.Total())
	}
	if b.Share(PhaseSpMM) != 0.75 {
		t.Fatalf("Share = %v", b.Share(PhaseSpMM))
	}
	if (Breakdown{}).Share(PhaseSpMM) != 0 {
		t.Fatal("empty breakdown share should be 0")
	}
	b.Add(Breakdown{PhaseSpMM: 1, PhaseGlue: 2})
	if b[PhaseSpMM] != 4 || b[PhaseGlue] != 2 {
		t.Fatalf("Add result: %v", b)
	}
}

func TestPhasesOrder(t *testing.T) {
	ph := Phases()
	if len(ph) != 5 || ph[0] != PhaseSpMM || ph[4] != PhaseSampling {
		t.Fatalf("Phases() = %v", ph)
	}
}

func TestWorkloadValidate(t *testing.T) {
	good := Workload{Name: "x", V: 10, E: 20, InDim: 4, OutDim: 2, Locality: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Workload{
		{Name: "negV", V: -1, InDim: 1, OutDim: 1},
		{Name: "noIn", V: 1, InDim: 0, OutDim: 1},
		{Name: "loc", V: 1, InDim: 1, OutDim: 1, Locality: 2},
	}
	for _, w := range bad {
		if err := w.Validate(); err == nil {
			t.Fatalf("%s: expected error", w.Name)
		}
	}
}

func TestFromDataset(t *testing.T) {
	d, err := ogb.ByName("products")
	if err != nil {
		t.Fatal(err)
	}
	w := FromDataset(d)
	if w.V != d.V || w.E != d.E || w.InDim != d.InDim || w.Name != "products" {
		t.Fatalf("FromDataset = %+v", w)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestModelLayerDims(t *testing.T) {
	m := DefaultModel(64)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	w := Workload{V: 10, E: 10, InDim: 100, OutDim: 47, Locality: 0}
	dims := m.LayerDims(w)
	if len(dims) != 3 {
		t.Fatalf("dims = %v", dims)
	}
	want := []LayerDim{{100, 64}, {64, 64}, {64, 47}}
	for i := range want {
		if dims[i] != want[i] {
			t.Fatalf("layer %d = %v, want %v", i, dims[i], want[i])
		}
	}
	if err := (Model{Layers: 1, Hidden: 8}).Validate(); err == nil {
		t.Fatal("1-layer model should be rejected")
	}
	if err := (Model{Layers: 3, Hidden: 0}).Validate(); err == nil {
		t.Fatal("0-hidden model should be rejected")
	}
}

func TestSpeedup(t *testing.T) {
	base := Breakdown{PhaseSpMM: 2}
	other := Breakdown{PhaseSpMM: 1}
	s, err := Speedup(base, other)
	if err != nil || s != 2 {
		t.Fatalf("Speedup = %v, %v", s, err)
	}
	if _, err := Speedup(Breakdown{}, other); err == nil {
		t.Fatal("expected error for zero base")
	}
}

func TestPlatformsRunGCN(t *testing.T) {
	w := FromDataset(mustDataset(t, "arxiv"))
	m := DefaultModel(64)
	for _, p := range []Platform{NewCPU(), NewGPU(), NewPIUMA()} {
		b, err := p.RunGCN(w, m)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if b.Total() <= 0 {
			t.Fatalf("%s: non-positive total", p.Name())
		}
		if b[PhaseSpMM] <= 0 || b[PhaseDense] <= 0 {
			t.Fatalf("%s: missing kernel phases: %v", p.Name(), b)
		}
		sp, err := p.SpMMTime(w, 64)
		if err != nil || sp <= 0 {
			t.Fatalf("%s: SpMMTime = %v, %v", p.Name(), sp, err)
		}
	}
}

func TestPlatformsRejectBadInputs(t *testing.T) {
	bad := Workload{Name: "bad", V: -1, InDim: 1, OutDim: 1}
	m := DefaultModel(8)
	for _, p := range []Platform{NewCPU(), NewGPU(), NewPIUMA()} {
		if _, err := p.RunGCN(bad, m); err == nil {
			t.Fatalf("%s: expected workload error", p.Name())
		}
		good := FromDataset(mustDataset(t, "arxiv"))
		if _, err := p.RunGCN(good, Model{Layers: 0, Hidden: 8}); err == nil {
			t.Fatalf("%s: expected model error", p.Name())
		}
		if _, err := p.SpMMTime(good, 0); err == nil {
			t.Fatalf("%s: expected K error", p.Name())
		}
	}
}

func TestGPUUsesSamplingOnlyWhenNotFitting(t *testing.T) {
	g := NewGPU()
	m := DefaultModel(256)
	fits, err := g.RunGCN(FromDataset(mustDataset(t, "products")), m)
	if err != nil {
		t.Fatal(err)
	}
	if fits[PhaseSampling] != 0 {
		t.Fatal("products fits on GPU: no sampling expected")
	}
	if fits[PhaseOffload] <= 0 {
		t.Fatal("fitting graphs still pay offload")
	}
	papers, err := g.RunGCN(FromDataset(mustDataset(t, "papers")), m)
	if err != nil {
		t.Fatal(err)
	}
	if papers[PhaseSampling] <= 0 {
		t.Fatal("papers must sample")
	}
}

func mustDataset(t testing.TB, name string) ogb.Dataset {
	t.Helper()
	d, err := ogb.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// --- Functional inference ---

func smallInferenceSetup(t testing.TB, seed int64) (*graph.CSR, *tensor.Matrix, []*tensor.Matrix, Workload) {
	t.Helper()
	raw, err := rmat.GenerateCSR(rmat.PowerLaw(7, 6, seed))
	if err != nil {
		t.Fatal(err)
	}
	a := graph.NormalizeGCN(raw)
	w := Workload{Name: "synthetic", V: int64(a.NumVertices), E: a.NumEdges(), InDim: 12, OutDim: 5, Locality: 0}
	m := DefaultModel(16)
	x := tensor.NewRandom(a.NumVertices, w.InDim, 1, seed+10)
	weights := GlorotWeights(m, w, seed+20)
	return a, x, weights, w
}

func TestInferShapesAndFiniteness(t *testing.T) {
	a, x, weights, w := smallInferenceSetup(t, 1)
	out, err := Infer(a, x, weights, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows != a.NumVertices || out.Cols != w.OutDim {
		t.Fatalf("output shape %dx%d, want %dx%d", out.Rows, out.Cols, a.NumVertices, w.OutDim)
	}
	for _, v := range out.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite output")
		}
	}
}

func TestInferMatchesReference(t *testing.T) {
	a, x, weights, _ := smallInferenceSetup(t, 2)
	par, err := Infer(a, x, weights, 8)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := InferReference(a, x, weights)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AlmostEqual(par, ref, 1e-9) {
		t.Fatal("parallel inference differs from reference")
	}
}

func TestInferErrors(t *testing.T) {
	a, x, weights, _ := smallInferenceSetup(t, 3)
	if _, err := Infer(a, x, nil, 1); err == nil {
		t.Fatal("expected error for no weights")
	}
	wrong := tensor.New(a.NumVertices+1, x.Cols)
	if _, err := Infer(a, wrong, weights, 1); err == nil {
		t.Fatal("expected error for row mismatch")
	}
	badW := []*tensor.Matrix{tensor.New(x.Cols+1, 4)}
	if _, err := Infer(a, x, badW, 1); err == nil {
		t.Fatal("expected error for weight shape mismatch")
	}
}

// Property: ReLU guarantees non-negative activations, so with
// non-negative input features and weights the output is non-negative
// (Ã entries are non-negative by construction).
func TestQuickInferNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		a, x, weights, _ := smallInferenceSetup(t, seed)
		for _, m := range append([]*tensor.Matrix{x}, weights...) {
			for i, v := range m.Data {
				if v < 0 {
					m.Data[i] = -v
				}
			}
		}
		out, err := Infer(a, x, weights, 4)
		if err != nil {
			return false
		}
		for _, v := range out.Data {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
