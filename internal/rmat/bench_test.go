package rmat

import "testing"

// BenchmarkRMAT times edge-list sampling of 2^16 edges at scale 12,
// noise-free and with Noise 0.1.
func BenchmarkRMAT(b *testing.B) {
	noisy := PowerLaw(12, 16, 1)
	noisy.Noise = 0.1
	for _, c := range []struct {
		name string
		p    Params
	}{
		{"power-law", PowerLaw(12, 16, 1)},
		{"noise=0.1", noisy},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Generate(c.p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
