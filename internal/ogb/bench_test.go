package ogb

import (
	"fmt"
	"testing"
)

// BenchmarkGenerate times ogb.Generate for the products-shaped graph
// at the 2^13 edge cap the simulator workloads use and at 2^17.
func BenchmarkGenerate(b *testing.B) {
	d, err := ByName("products")
	if err != nil {
		b.Fatal(err)
	}
	for _, maxE := range []int64{1 << 13, 1 << 17} {
		b.Run(fmt.Sprintf("products-cap=%d", maxE), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := Generate(d, GenerateOptions{MaxEdges: maxE, Seed: 7}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
