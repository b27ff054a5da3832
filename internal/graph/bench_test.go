package graph_test

import (
	"testing"

	"piumagcn/internal/graph"
	"piumagcn/internal/rmat"
)

// BenchmarkFromCOO times the CSR build of a power-law edge list of 2^16
// edges over 2^12 vertices: row bucketing, the per-row sort and the
// duplicate merge.
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
