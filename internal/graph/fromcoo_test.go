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
