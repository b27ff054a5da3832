// Package rmat implements the recursive-matrix (RMAT) random graph
// generator used by the paper for its linear function sweeps (Figure 2)
// and the power-16/power-22 workloads of Figure 9. The generator is the
// SNAP-equivalent recursive quadrant scheme: each edge picks one of four
// quadrants with probabilities (A, B, C, D) at every level of a
// scale-deep recursion.
//
// Two presets matter for the reproduction:
//
//   - PowerLaw (A=0.57, B=0.19, C=0.19, D=0.05): the classic skewed
//     distribution used for power-16/power-22.
//   - Uniform (A=B=C=D=0.25): degenerate RMAT equal to an Erdős–Rényi
//     G(n, m) sampler, the "uniform degree distribution" sweep of
//     Figure 2.
//
// Sampling is one exact stream per call: a math/rand source seeded with
// Params.Seed, one Float64 per recursion level per edge (five with
// Noise), written straight into the returned edge list. GenerateN draws
// a count that need not be a multiple of 2^Scale and folds endpoints
// into a vertex count that need not be a power of two by a remainder,
// which is how internal/ogb builds its down-scaled datasets. Both sides
// of the remainder are below 2^30, so it divides in 32 bits, which is
// cheaper than a 64-bit divide and gives the same endpoint. Each level
// picks its quadrant without branches from the cut points A, A+B and
// (A+B)+C; the stream and every generated graph are pinned by
// internal/ogb's golden corpus.
package rmat

import (
	"errors"
	"fmt"
	"math/rand"

	"piumagcn/internal/graph"
)

// Params configures a generation run.
type Params struct {
	// Scale is log2 of the number of vertices: |V| = 1 << Scale.
	Scale int
	// EdgeFactor is |E| / |V|; NumEdges = EdgeFactor * |V| edges are
	// sampled (before self-loop removal and coalescing).
	EdgeFactor int
	// A, B, C, D are the quadrant probabilities; they must be
	// non-negative and sum to 1 (within a small tolerance).
	A, B, C, D float64
	// Noise perturbs the quadrant probabilities at every recursion level
	// (SNAP's "noise" smoothing). Zero keeps the exact probabilities.
	Noise float64
	// Seed makes generation deterministic.
	Seed int64
}

// PowerLaw returns the classic skewed RMAT parameterization.
func PowerLaw(scale, edgeFactor int, seed int64) Params {
	return Params{Scale: scale, EdgeFactor: edgeFactor, A: 0.57, B: 0.19, C: 0.19, D: 0.05, Seed: seed}
}

// Uniform returns the uniform-degree parameterization used by the
// Figure 2 sweeps.
func Uniform(scale, edgeFactor int, seed int64) Params {
	return Params{Scale: scale, EdgeFactor: edgeFactor, A: 0.25, B: 0.25, C: 0.25, D: 0.25, Seed: seed}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Scale < 0 || p.Scale > 30 {
		return fmt.Errorf("rmat: scale %d out of range [0,30]", p.Scale)
	}
	if p.EdgeFactor < 0 {
		return errors.New("rmat: negative edge factor")
	}
	if p.A < 0 || p.B < 0 || p.C < 0 || p.D < 0 {
		return errors.New("rmat: negative quadrant probability")
	}
	sum := p.A + p.B + p.C + p.D
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("rmat: quadrant probabilities sum to %v, want 1", sum)
	}
	if p.Noise < 0 || p.Noise > 0.5 {
		return fmt.Errorf("rmat: noise %v out of range [0,0.5]", p.Noise)
	}
	return nil
}

// Generate samples an edge list. Self loops are kept (the GCN
// normalization adds the identity anyway); duplicate edges survive in the
// COO and are coalesced by graph.FromCOO.
func Generate(p Params) (*graph.COO, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := 1 << p.Scale
	return GenerateN(p, int64(n*p.EdgeFactor), n)
}

// GenerateN samples exactly ne edges from p's quadrant distribution over
// the 2^Scale square, seeded with p.Seed, and folds every endpoint into
// [0, n) with a 32-bit % n; p.EdgeFactor is ignored. With n = 2^Scale
// it returns the first ne edges Generate would.
func GenerateN(p Params, ne int64, n int) (*graph.COO, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("rmat: non-positive vertex count %d", n)
	}
	if ne < 0 {
		return nil, fmt.Errorf("rmat: negative edge count %d", ne)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	fold := n < 1<<p.Scale
	edges := make([]graph.Edge, ne)
	for i := range edges {
		var src, dst int
		if p.Noise > 0 {
			src, dst = sampleNoisyEdge(rng, p)
		} else {
			src, dst = sampleEdge(rng, &p)
		}
		if fold {
			// Endpoints are below 2^Scale <= 2^30, and n is below
			// 2^Scale, so the 32-bit remainder is exact.
			src, dst = int(uint32(src)%uint32(n)), int(uint32(dst)%uint32(n))
		}
		edges[i] = graph.Edge{Src: int32(src), Dst: int32(dst), Weight: 1}
	}
	return &graph.COO{NumVertices: n, Edges: edges}, nil
}

// GenerateCSR is a convenience wrapper that also builds the CSR form.
func GenerateCSR(p Params) (*graph.CSR, error) {
	coo, err := Generate(p)
	if err != nil {
		return nil, err
	}
	return graph.FromCOO(coo)
}

// sampleEdge draws one noise-free edge, one Float64 per level.
func sampleEdge(rng *rand.Rand, p *Params) (src, dst int) {
	a := p.A
	ab := a + p.B
	abc := ab + p.C
	for range p.Scale {
		s, d := quadrant(rng.Float64(), a, ab, abc)
		src, dst = src<<1|s, dst<<1|d
	}
	return src, dst
}

// sampleNoisyEdge draws one edge with the quadrant probabilities
// perturbed at every level: four Float64 draws for the noise, then one
// for the quadrant.
func sampleNoisyEdge(rng *rand.Rand, p Params) (src, dst int) {
	a, b, c := p.A, p.B, p.C
	for range p.Scale {
		// Symmetric perturbation that keeps the sum at 1 by
		// renormalizing.
		na := a * (1 - p.Noise + 2*p.Noise*rng.Float64())
		nb := b * (1 - p.Noise + 2*p.Noise*rng.Float64())
		nc := c * (1 - p.Noise + 2*p.Noise*rng.Float64())
		nd := (1 - a - b - c) * (1 - p.Noise + 2*p.Noise*rng.Float64())
		tot := na + nb + nc + nd
		a, b, c = na/tot, nb/tot, nc/tot
		ab := a + b
		s, d := quadrant(rng.Float64(), a, ab, ab+c)
		src, dst = src<<1|s, dst<<1|d
	}
	return src, dst
}

// quadrant returns the src and dst bits of the quadrant r falls in,
// without branches: r < a is top-left, r < ab top-right, r < abc
// bottom-left, else bottom-right. Callers pass ab = a+b and abc =
// (a+b)+c, summed left to right: another order can round a cut point
// differently and move an edge the golden corpus pins.
func quadrant(r, a, ab, abc float64) (s, d int) {
	s = b2i(r >= ab)
	return s, b2i(r >= a) ^ s ^ b2i(r >= abc)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// GenerateByDensity produces a uniform graph with the given vertex count
// and adjacency-matrix density δ (|E| = δ·|V|²), the coordinate system of
// Figure 2. The vertex count need not be a power of two.
func GenerateByDensity(numVertices int, density float64, seed int64) (*graph.COO, error) {
	if numVertices <= 0 {
		return nil, errors.New("rmat: non-positive vertex count")
	}
	if density < 0 || density > 1 {
		return nil, fmt.Errorf("rmat: density %v out of range [0,1]", density)
	}
	ne := int64(density * float64(numVertices) * float64(numVertices))
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, ne)
	for i := range edges {
		edges[i] = graph.Edge{
			Src:    int32(rng.Intn(numVertices)),
			Dst:    int32(rng.Intn(numVertices)),
			Weight: 1,
		}
	}
	return &graph.COO{NumVertices: numVertices, Edges: edges}, nil
}
