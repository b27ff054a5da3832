// Package ogb provides a synthetic stand-in for the Open Graph Benchmark
// datasets of Table I. We cannot ship the real OGB data (the largest,
// papers100M, is a 1.6-billion-edge download), so the catalogue records
// each dataset's structural coordinates — |V|, |E|, degree skew, feature
// dimensions, cache-locality class — and can generate synthetic graphs
// with the same shape at any scale.
//
// Every timing result in the paper is a function of these coordinates
// (plus the embedding dimension K), never of the actual feature values,
// so the substitution preserves the characterization. The analytical
// models always evaluate at the full Table I sizes; generated graphs are
// used for the event-level simulator and the functional kernels, where a
// documented down-scale keeps runtimes tractable.
package ogb

import (
	"fmt"
	"math"
	"math/bits"

	"piumagcn/internal/graph"
	"piumagcn/internal/rmat"
)

// Skew classifies the degree distribution, which drives both the
// generator parameters and the CPU cache-locality model.
type Skew int

const (
	// SkewUniform: near-constant degrees (e.g. ddi's dense drug graph).
	SkewUniform Skew = iota
	// SkewModerate: light-tailed, community-structured (products, ppa).
	SkewModerate
	// SkewPower: heavy-tailed power law (citation graphs).
	SkewPower
)

func (s Skew) String() string {
	switch s {
	case SkewUniform:
		return "uniform"
	case SkewModerate:
		return "moderate"
	case SkewPower:
		return "power"
	default:
		return fmt.Sprintf("Skew(%d)", int(s))
	}
}

// Dataset describes one workload from Table I.
type Dataset struct {
	Name string
	// V and E are the full-size vertex and edge counts from Table I.
	V int64
	E int64
	// InDim and OutDim are the dataset-specific input feature length and
	// output dimension of the 3-layer GCN (hidden dims are the swept K).
	InDim, OutDim int
	// Skew selects the generator preset.
	Skew Skew
	// Locality in [0,1] models how cache-friendly the vertex ordering
	// is: the fraction of feature reads that hit cache *beyond* what raw
	// capacity predicts. products is noted in Section V-A as making good
	// use of CPU caches; low-locality graphs (power-law RMAT) get 0.
	Locality float64
}

// AvgDegree returns |E| / |V|.
func (d Dataset) AvgDegree() float64 { return float64(d.E) / float64(d.V) }

// Density returns |E| / |V|² (the δ of Figure 2's y-axis).
func (d Dataset) Density() float64 { return float64(d.E) / (float64(d.V) * float64(d.V)) }

// Catalog returns the nine OGB datasets of Table I, in the paper's order.
// Feature dimensions follow the public OGB metadata (node-property
// datasets) or a 128-wide default for the link datasets whose models the
// paper treats identically.
func Catalog() []Dataset {
	return []Dataset{
		{Name: "ddi", V: 4_267, E: 1_334_889, InDim: 128, OutDim: 128, Skew: SkewUniform, Locality: 0.9},
		{Name: "proteins", V: 132_534, E: 39_561_252, InDim: 8, OutDim: 112, Skew: SkewModerate, Locality: 0.8},
		{Name: "arxiv", V: 169_343, E: 1_166_243, InDim: 128, OutDim: 40, Skew: SkewPower, Locality: 0.4},
		{Name: "collab", V: 235_868, E: 1_285_465, InDim: 128, OutDim: 128, Skew: SkewModerate, Locality: 0.4},
		{Name: "ppa", V: 576_289, E: 30_326_273, InDim: 58, OutDim: 128, Skew: SkewModerate, Locality: 0.5},
		{Name: "mag", V: 1_939_743, E: 21_111_007, InDim: 128, OutDim: 349, Skew: SkewPower, Locality: 0.3},
		{Name: "products", V: 2_449_029, E: 61_859_140, InDim: 100, OutDim: 47, Skew: SkewModerate, Locality: 0.5},
		{Name: "citation2", V: 2_927_963, E: 30_561_187, InDim: 128, OutDim: 128, Skew: SkewPower, Locality: 0.3},
		{Name: "papers", V: 111_059_956, E: 1_615_685_872, InDim: 128, OutDim: 172, Skew: SkewPower, Locality: 0.1},
	}
}

// PowerRMAT returns the synthetic power-law workloads of Figure 9
// (power-16 and power-22): RMAT scale-16/-22 with edge factor 16 and no
// cache-friendly locality.
func PowerRMAT(scale int) Dataset {
	v := int64(1) << scale
	return Dataset{
		Name:   fmt.Sprintf("power-%d", scale),
		V:      v,
		E:      v * 16,
		InDim:  128,
		OutDim: 128,
		Skew:   SkewPower,
		// Power-law RMAT graphs are called out in Figure 9 as the
		// low-locality case where PIUMA beats the GPU on SpMM.
		Locality: 0.0,
	}
}

// ByName finds a dataset in the catalogue (or the power-16/power-22
// synthetics).
func ByName(name string) (Dataset, error) {
	for _, d := range Catalog() {
		if d.Name == name {
			return d, nil
		}
	}
	switch name {
	case "power-16":
		return PowerRMAT(16), nil
	case "power-22":
		return PowerRMAT(22), nil
	}
	return Dataset{}, fmt.Errorf("ogb: unknown dataset %q", name)
}

// Scaled returns a copy of d with |V| and |E| multiplied by f (at least 1
// vertex / 0 edges), preserving the average degree. Use for generating
// tractable synthetic instances; the models should evaluate full sizes.
func (d Dataset) Scaled(f float64) Dataset {
	if f <= 0 || f > 1 {
		// Callers control f; clamp rather than error so that sweep code
		// stays simple. Full size is the identity.
		f = 1
	}
	out := d
	out.V = int64(math.Max(1, math.Round(float64(d.V)*f)))
	out.E = int64(math.Round(float64(d.E) * f))
	out.Name = fmt.Sprintf("%s(x%.4g)", d.Name, f)
	return out
}

// GenerateOptions bounds synthetic graph generation.
type GenerateOptions struct {
	// MaxEdges caps the generated edge count; the dataset is scaled down
	// (preserving average degree) if necessary. Zero means 2^21 edges:
	// a products-shaped graph at 2^21 takes about 0.46 s to generate on
	// a 2-vCPU x86 host, 0.23 s at 2^20 and 1.0 ms at 2^13.
	MaxEdges int64
	// Seed makes generation deterministic.
	Seed int64
}

// Generate builds a synthetic CSR adjacency with d's structural shape,
// down-scaled to at most opts.MaxEdges edges. It returns the matrix and
// the applied scale factor (1 when the dataset already fits).
func Generate(d Dataset, opts GenerateOptions) (*graph.CSR, float64, error) {
	maxE := opts.MaxEdges
	if maxE <= 0 {
		maxE = 1 << 21
	}
	f := 1.0
	if d.E > maxE {
		f = float64(maxE) / float64(d.E)
	}
	target := d.Scaled(f)
	// Round |V| up to a power of two for the RMAT recursion, then fold
	// the vertex ids back down so the exact vertex count is honoured.
	scale := bits.Len64(uint64(target.V - 1))
	if target.V <= 1 {
		scale = 0
	}
	p := rmat.Params{Scale: scale, Seed: opts.Seed}
	switch d.Skew {
	case SkewUniform:
		p.A, p.B, p.C, p.D = 0.25, 0.25, 0.25, 0.25
	case SkewModerate:
		p.A, p.B, p.C, p.D = 0.45, 0.22, 0.22, 0.11
	case SkewPower:
		p.A, p.B, p.C, p.D = 0.57, 0.19, 0.19, 0.05
	default:
		return nil, 0, fmt.Errorf("ogb: unknown skew %v", d.Skew)
	}
	coo, err := rmat.GenerateN(p, target.E, int(target.V))
	if err != nil {
		return nil, 0, err
	}
	csr, err := graph.FromCOO(coo)
	if err != nil {
		return nil, 0, err
	}
	return csr, f, nil
}
