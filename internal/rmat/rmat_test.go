package rmat

import (
	"testing"
	"testing/quick"

	"piumagcn/internal/graph"
)

func TestGenerateDeterministic(t *testing.T) {
	p := PowerLaw(8, 8, 1234)
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("nondeterministic edge count")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a.Edges[i], b.Edges[i])
		}
	}
}

func TestGenerateSizes(t *testing.T) {
	p := Uniform(10, 16, 7)
	coo, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if coo.NumVertices != 1024 {
		t.Fatalf("|V| = %d, want 1024", coo.NumVertices)
	}
	if len(coo.Edges) != 1024*16 {
		t.Fatalf("|E| = %d, want %d", len(coo.Edges), 1024*16)
	}
	if err := coo.Validate(); err != nil {
		t.Fatal(err)
	}
}

// GenerateN draws Generate's stream: the first ne edges, folded into
// [0, n) when n is below 2^Scale, for noise-free and noisy parameters.
func TestGenerateNIsFoldedPrefix(t *testing.T) {
	noisy := PowerLaw(9, 4, 5)
	noisy.Noise = 0.2
	for _, p := range []Params{PowerLaw(9, 4, 5), noisy} {
		full, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			ne int64
			n  int
		}{{1000, 512}, {1000, 300}, {0, 300}, {2048, 257}} {
			got, err := GenerateN(p, c.ne, c.n)
			if err != nil {
				t.Fatal(err)
			}
			if got.NumVertices != c.n || int64(len(got.Edges)) != c.ne {
				t.Fatalf("GenerateN(%d, %d): %d vertices, %d edges", c.ne, c.n, got.NumVertices, len(got.Edges))
			}
			for i, e := range got.Edges {
				w := full.Edges[i]
				want := graph.Edge{Src: w.Src % int32(c.n), Dst: w.Dst % int32(c.n), Weight: 1}
				if e != want {
					t.Fatalf("GenerateN(%d, %d) edge %d = %v, want %v", c.ne, c.n, i, e, want)
				}
			}
		}
	}
	if _, err := GenerateN(PowerLaw(4, 1, 1), 10, 0); err == nil {
		t.Fatal("GenerateN accepted zero vertices")
	}
	if _, err := GenerateN(PowerLaw(4, 1, 1), -1, 16); err == nil {
		t.Fatal("GenerateN accepted a negative edge count")
	}
	if _, err := GenerateN(Params{Scale: -1}, 10, 16); err == nil {
		t.Fatal("GenerateN accepted invalid parameters")
	}
}

func TestPowerLawIsSkewed(t *testing.T) {
	pl, err := GenerateCSR(PowerLaw(12, 16, 99))
	if err != nil {
		t.Fatal(err)
	}
	un, err := GenerateCSR(Uniform(12, 16, 99))
	if err != nil {
		t.Fatal(err)
	}
	plCV := graph.ComputeStats(pl).DegreeCV
	unCV := graph.ComputeStats(un).DegreeCV
	if plCV < 2*unCV {
		t.Fatalf("power-law CV %v not clearly above uniform CV %v", plCV, unCV)
	}
	if unCV > 0.5 {
		t.Fatalf("uniform CV %v too high", unCV)
	}
}

func TestValidate(t *testing.T) {
	bad := []Params{
		{Scale: -1, EdgeFactor: 1, A: 0.25, B: 0.25, C: 0.25, D: 0.25},
		{Scale: 31, EdgeFactor: 1, A: 0.25, B: 0.25, C: 0.25, D: 0.25},
		{Scale: 4, EdgeFactor: -1, A: 0.25, B: 0.25, C: 0.25, D: 0.25},
		{Scale: 4, EdgeFactor: 1, A: 0.5, B: 0.5, C: 0.25, D: 0.25},
		{Scale: 4, EdgeFactor: 1, A: -0.1, B: 0.6, C: 0.25, D: 0.25},
		{Scale: 4, EdgeFactor: 1, A: 0.25, B: 0.25, C: 0.25, D: 0.25, Noise: 0.9},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error for %+v", i, p)
		}
	}
	if err := PowerLaw(4, 4, 0).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNoiseStillValid(t *testing.T) {
	p := PowerLaw(8, 8, 5)
	p.Noise = 0.1
	coo, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := coo.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateByDensity(t *testing.T) {
	coo, err := GenerateByDensity(500, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := int(0.01 * 500 * 500)
	if len(coo.Edges) != want {
		t.Fatalf("|E| = %d, want %d", len(coo.Edges), want)
	}
	if err := coo.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateByDensity(0, 0.1, 0); err == nil {
		t.Fatal("expected error for zero vertices")
	}
	if _, err := GenerateByDensity(10, 1.5, 0); err == nil {
		t.Fatal("expected error for density > 1")
	}
}

// Property: every generated edge is within range for arbitrary valid
// scales and seeds, for both presets.
func TestQuickEdgesInRange(t *testing.T) {
	f := func(seed int64, scaleRaw, efRaw uint8, power bool) bool {
		scale := int(scaleRaw)%10 + 1
		ef := int(efRaw)%8 + 1
		var p Params
		if power {
			p = PowerLaw(scale, ef, seed)
		} else {
			p = Uniform(scale, ef, seed)
		}
		coo, err := Generate(p)
		if err != nil {
			return false
		}
		return coo.Validate() == nil && coo.NumVertices == 1<<scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
