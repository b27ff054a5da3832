package graph_test

import (
	"testing"

	"piumagcn/internal/graph"
	"piumagcn/internal/ogb"
	"piumagcn/internal/rmat"
)

// BenchmarkFromCOO times the CSR build of a power-law edge list of 2^16
// edges over 2^12 vertices. Its weights are all 1, so this is the
// counting-sort build: two bucket passes and the duplicate merge.
func BenchmarkFromCOO(b *testing.B) {
	coo, err := rmat.Generate(rmat.PowerLaw(12, 16, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := graph.FromCOO(coo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFromCOOWeighted times the same build with weights that
// differ from edge to edge, so every row goes through the per-row
// pdqsort path that keeps weighted duplicates in a pinned order.
func BenchmarkFromCOOWeighted(b *testing.B) {
	coo, err := rmat.Generate(rmat.PowerLaw(12, 16, 1))
	if err != nil {
		b.Fatal(err)
	}
	for i := range coo.Edges {
		coo.Edges[i].Weight = float64(1 + i%7)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := graph.FromCOO(coo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNormalizeGCN times the GCN normalization, self loops
// included, of the products-shaped graph at the 2^17 edge cap.
func BenchmarkNormalizeGCN(b *testing.B) {
	d, err := ogb.ByName("products")
	if err != nil {
		b.Fatal(err)
	}
	a, _, err := ogb.Generate(d, ogb.GenerateOptions{MaxEdges: 1 << 17, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		graph.NormalizeGCN(a)
	}
}
