package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refCV is one (column, value) pair of a row in referenceFromCOO.
type refCV struct {
	c int32
	v float64
}

// referenceFromCOO is FromCOO as it was built on sort.Slice: bucket the
// edges by row, sort each row's (col, val) pairs with sortRow, and sum
// runs of equal columns in the sorted order.
func referenceFromCOO(c *COO, sortRow func([]refCV)) *CSR {
	n := c.NumVertices
	rowPtr := make([]int64, n+1)
	for _, e := range c.Edges {
		rowPtr[e.Src+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	rows := make([][]refCV, n)
	for _, e := range c.Edges {
		rows[e.Src] = append(rows[e.Src], refCV{e.Dst, e.Weight})
	}
	out := &CSR{NumVertices: n, RowPtr: make([]int64, n+1)}
	for u, row := range rows {
		sortRow(row)
		out.RowPtr[u] = int64(len(out.Col))
		for i := 0; i < len(row); {
			j := i + 1
			sum := row[i].v
			for j < len(row) && row[j].c == row[i].c {
				sum += row[j].v
				j++
			}
			out.Col = append(out.Col, row[i].c)
			out.Val = append(out.Val, sum)
			i = j
		}
	}
	out.RowPtr[n] = int64(len(out.Col))
	return out
}

func sortSliceRow(row []refCV) {
	sort.Slice(row, func(i, j int) bool { return row[i].c < row[j].c })
}

func stableRow(row []refCV) {
	sort.SliceStable(row, func(i, j int) bool { return row[i].c < row[j].c })
}

// randomWeightedCOO draws a COO with few rows (so rows run far past the
// 12 elements pdqsort hands to insertion sort), columns from a small
// pool (heavy duplicates) and weights spread over six decades, so the
// order in which duplicates are summed shows in the last bits.
func randomWeightedCOO(rng *rand.Rand) *COO {
	n := 1 + rng.Intn(24)
	pool := 1 + rng.Intn(n)
	edges := make([]Edge, rng.Intn(800))
	for i := range edges {
		edges[i] = Edge{
			Src:    int32(rng.Intn(n)),
			Dst:    int32(rng.Intn(pool)),
			Weight: rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)),
		}
	}
	return &COO{NumVertices: n, Edges: edges}
}

func sameCSRBits(a, b *CSR) bool {
	if a.NumVertices != b.NumVertices || len(a.RowPtr) != len(b.RowPtr) ||
		len(a.Col) != len(b.Col) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.Col {
		if a.Col[i] != b.Col[i] || math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}

// TestFromCOOMatchesSortSliceReference requires FromCOO to reproduce the
// sort.Slice construction bit for bit: same RowPtr, same Col, and the
// same Float64bits of every coalesced weight. Equal columns must land
// in the same order, so duplicates are summed in the same order. The
// same inputs are also checked to tell a stable sort apart from the
// reference, which shows they reach that sensitivity.
func TestFromCOOMatchesSortSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	stableDiffers := 0
	for i := 0; i < 300; i++ {
		c := randomWeightedCOO(rng)
		want := referenceFromCOO(c, sortSliceRow)
		got, err := FromCOO(c)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCSRBits(got, want) {
			t.Fatalf("case %d (%d vertices, %d edges): FromCOO differs from the sort.Slice reference", i, c.NumVertices, len(c.Edges))
		}
		if !sameCSRBits(referenceFromCOO(c, stableRow), want) {
			stableDiffers++
		}
	}
	if stableDiffers == 0 {
		t.Fatal("no input separates a stable sort from the reference; the inputs do not exercise summation order")
	}
}

// randomUniformCOO draws a COO whose edges all carry weight w: up to 40
// vertices (0 included) with sources and columns drawn from pools
// smaller than n, so there are empty rows and long runs of duplicates,
// and about one edge in eight a self-loop.
func randomUniformCOO(rng *rand.Rand, w float64) *COO {
	n := rng.Intn(41)
	if n == 0 {
		return &COO{}
	}
	srcPool, colPool := 1+rng.Intn(n), 1+rng.Intn(n)
	edges := make([]Edge, rng.Intn(600))
	for i := range edges {
		src := int32(rng.Intn(srcPool))
		dst := int32(rng.Intn(colPool))
		if rng.Intn(8) == 0 {
			dst = src
		}
		edges[i] = Edge{Src: src, Dst: dst, Weight: w}
	}
	return &COO{NumVertices: n, Edges: edges}
}

// maxMultiplicity returns the largest number of times one (src, dst)
// pair occurs in c.
func maxMultiplicity(c *COO) int {
	count := map[[2]int32]int{}
	most := 0
	for _, e := range c.Edges {
		k := [2]int32{e.Src, e.Dst}
		count[k]++
		most = max(most, count[k])
	}
	return most
}

// TestFromCOOUniformMatchesReference requires the counting-sort build
// of uniform-weight edge lists to reproduce the sort.Slice reference
// bit for bit, for shared weights whose repeated sums round (0.1),
// underflow toward subnormals (1e-300), keep a sign (-0) or stay
// non-finite (+Inf, a NaN with a payload). Fixed cases add zero and one
// vertex, zero edges, a lone self-loop and a row of five duplicates
// listed out of column order. A last list differs from uniform in one
// weight, and must take the pdqsort path and still match.
func TestFromCOOUniformMatchesReference(t *testing.T) {
	weights := []float64{1, 0.1, 1e-300, math.Copysign(0, -1), math.Inf(1), math.Float64frombits(0x7ff8000000000abc)}
	one := func(src, dst int32) Edge { return Edge{Src: src, Dst: dst, Weight: 1} }
	cases := []*COO{
		{},
		{NumVertices: 1},
		{NumVertices: 3},
		{NumVertices: 1, Edges: []Edge{one(0, 0)}},
		{NumVertices: 1, Edges: []Edge{one(0, 0), one(0, 0), one(0, 0)}},
		{NumVertices: 4, Edges: []Edge{one(2, 3), one(2, 1), one(2, 3), one(0, 2), one(2, 3), one(2, 1), one(2, 3), one(2, 0), one(2, 3)}},
	}
	rng := rand.New(rand.NewSource(23))
	for range 60 {
		for _, w := range weights {
			cases = append(cases, randomUniformCOO(rng, w))
		}
	}
	most := 0
	for i, c := range cases {
		most = max(most, maxMultiplicity(c))
		w, ok := uniformWeight(c.Edges)
		if !ok {
			t.Fatalf("case %d: uniformWeight rejects a list of one weight", i)
		}
		want := referenceFromCOO(c, sortSliceRow)
		if got := fromUniformCOO(c, w); !sameCSRBits(got, want) {
			t.Fatalf("case %d (%d vertices, %d edges, weight %v): fromUniformCOO differs from the sort.Slice reference", i, c.NumVertices, len(c.Edges), w)
		}
		got, err := FromCOO(c)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCSRBits(got, want) {
			t.Fatalf("case %d (%d vertices, %d edges, weight %v): FromCOO differs from the sort.Slice reference", i, c.NumVertices, len(c.Edges), w)
		}
	}
	if most < 10 {
		t.Fatalf("no edge occurs more than %d times; the cases do not reach long duplicate runs", most)
	}

	mixed := randomUniformCOO(rng, 1)
	for len(mixed.Edges) < 2 {
		mixed = randomUniformCOO(rng, 1)
	}
	mixed.Edges[len(mixed.Edges)/2].Weight = 0.5
	if _, ok := uniformWeight(mixed.Edges); ok {
		t.Fatal("uniformWeight accepts a list with one differing weight")
	}
	got, err := FromCOO(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCSRBits(got, referenceFromCOO(mixed, sortSliceRow)) {
		t.Fatal("FromCOO differs from the sort.Slice reference on a list with one differing weight")
	}
}
