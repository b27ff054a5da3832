package graph_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"piumagcn/internal/graph"
	"piumagcn/internal/ogb"
)

// fromCOOAddSelfLoops is AddSelfLoops as it was first built: copy every
// entry of m into a COO, list (u, u, w) after row u's entries, and
// rebuild the CSR through FromCOO.
func fromCOOAddSelfLoops(t *testing.T, m *graph.CSR, w float64) *graph.CSR {
	t.Helper()
	edges := make([]graph.Edge, 0, len(m.Col)+m.NumVertices)
	for u := 0; u < m.NumVertices; u++ {
		cols, vals := m.Row(u)
		for i, c := range cols {
			edges = append(edges, graph.Edge{Src: int32(u), Dst: c, Weight: vals[i]})
		}
		edges = append(edges, graph.Edge{Src: int32(u), Dst: int32(u), Weight: w})
	}
	out, err := graph.FromCOO(&graph.COO{NumVertices: m.NumVertices, Edges: edges})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameBits reports whether a and b have the same RowPtr, Col and
// math.Float64bits of every value.
func sameBits(a, b *graph.CSR) bool {
	return a.NumVertices == b.NumVertices && slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.Col, b.Col) &&
		slices.EqualFunc(a.Val, b.Val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestAddSelfLoopsMatchesFromCOORoute requires AddSelfLoops to give the
// CSR of the FromCOO route bit for bit on three inputs: a generated
// graph, the same graph with weighted diagonal entries on every third
// vertex, and a hand-built CSR whose rows hold unsorted and duplicate
// columns, one of them longer than the 12 entries pdqsort leaves to
// insertion sort. Loop weight 1 matches the generated graph's weights,
// so the FromCOO route takes its counting-sort build; 0.3 does not, so
// it sorts every row.
func TestAddSelfLoopsMatchesFromCOORoute(t *testing.T) {
	d, err := ogb.ByName("products")
	if err != nil {
		t.Fatal(err)
	}
	generated, _, err := ogb.Generate(d, ogb.GenerateOptions{MaxEdges: 1 << 13, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	var diag []graph.Edge
	for u := 0; u < generated.NumVertices; u++ {
		cols, vals := generated.Row(u)
		for i, c := range cols {
			diag = append(diag, graph.Edge{Src: int32(u), Dst: c, Weight: vals[i]})
		}
		if u%3 == 0 {
			diag = append(diag, graph.Edge{Src: int32(u), Dst: int32(u), Weight: 0.25 * float64(u%5+1)})
		}
	}
	withDiag, err := graph.FromCOO(&graph.COO{NumVertices: generated.NumVertices, Edges: diag})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(31))
	var long []int32
	var longVals []float64
	for range 40 {
		long = append(long, int32(rng.Intn(6)))
		longVals = append(longVals, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(7)-3)))
	}
	handCols := append([]int32{3, 1, 3, 0, 2, 2, 0, 1, 2}, long...)
	handVals := append([]float64{1e-3, 2, 1e3, 0.1, 7, 0.5, 3, 1e-2, 5}, longVals...)
	hand := &graph.CSR{
		NumVertices: 6,
		// Row 0 is unsorted with a repeat, row 1 empty, row 2 repeats its
		// diagonal, row 3 is sorted without one, row 4 is the long row
		// and row 5 is empty.
		RowPtr: []int64{0, 4, 4, 6, 9, 9 + int64(len(long)), 9 + int64(len(long))},
		Col:    handCols,
		Val:    handVals,
	}
	if err := hand.Validate(); err != nil {
		t.Fatal(err)
	}

	for _, in := range []struct {
		name string
		m    *graph.CSR
	}{{"generated", generated}, {"diagonal", withDiag}, {"hand-built", hand}} {
		for _, w := range []float64{1, 0.3} {
			got, want := in.m.AddSelfLoops(w), fromCOOAddSelfLoops(t, in.m, w)
			if !sameBits(got, want) {
				t.Fatalf("%s, loop weight %v: AddSelfLoops differs from the FromCOO route", in.name, w)
			}
		}
	}
}
