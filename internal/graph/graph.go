// Package graph provides the sparse-matrix substrate used throughout the
// reproduction: COO edge lists, CSR adjacency matrices, the symmetric GCN
// normalization Ã = D^{-1/2}(A+I)D^{-1/2} from Kipf & Welling, and the
// structural statistics (scale, density, degree skew) that drive the
// paper's characterization methodology.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Edge is a directed edge with an optional weight. For unweighted graphs
// the weight is 1.
type Edge struct {
	Src, Dst int32
	Weight   float64
}

// COO is an edge-list (coordinate format) sparse matrix. It is the
// interchange format produced by the generators; convert to CSR before
// running kernels.
type COO struct {
	NumVertices int
	Edges       []Edge
}

// Validate checks that every endpoint is within range.
func (c *COO) Validate() error {
	if c.NumVertices < 0 {
		return errors.New("graph: negative vertex count")
	}
	n := int32(c.NumVertices)
	for i, e := range c.Edges {
		if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n {
			return fmt.Errorf("graph: edge %d (%d->%d) out of range [0,%d)", i, e.Src, e.Dst, n)
		}
	}
	return nil
}

// CSR is a compressed sparse row matrix. Row u's neighbours are
// Col[RowPtr[u]:RowPtr[u+1]] with weights Val[RowPtr[u]:RowPtr[u+1]].
//
// This is the storage format assumed by the paper's analytical model
// (Equation 1): a row-offset array of |V|+1 entries, a column array of
// |E| entries and a non-zero value array of |E| entries.
type CSR struct {
	NumVertices int
	RowPtr      []int64
	Col         []int32
	Val         []float64
}

// NumEdges returns the number of stored non-zeros.
func (m *CSR) NumEdges() int64 {
	if len(m.RowPtr) == 0 {
		return 0
	}
	return m.RowPtr[len(m.RowPtr)-1]
}

// Degree returns the out-degree (row length) of vertex u.
func (m *CSR) Degree(u int) int64 {
	return m.RowPtr[u+1] - m.RowPtr[u]
}

// Row returns the column indices and values of row u. The returned slices
// alias the CSR storage and must not be modified.
func (m *CSR) Row(u int) ([]int32, []float64) {
	lo, hi := m.RowPtr[u], m.RowPtr[u+1]
	return m.Col[lo:hi], m.Val[lo:hi]
}

// Validate checks structural invariants: monotone row pointers, in-range
// column indices, matching array lengths.
func (m *CSR) Validate() error {
	if len(m.RowPtr) != m.NumVertices+1 {
		return fmt.Errorf("graph: RowPtr length %d, want %d", len(m.RowPtr), m.NumVertices+1)
	}
	if m.RowPtr[0] != 0 {
		return errors.New("graph: RowPtr[0] != 0")
	}
	for u := 0; u < m.NumVertices; u++ {
		if m.RowPtr[u+1] < m.RowPtr[u] {
			return fmt.Errorf("graph: RowPtr not monotone at row %d", u)
		}
	}
	nnz := m.RowPtr[m.NumVertices]
	if int64(len(m.Col)) != nnz || int64(len(m.Val)) != nnz {
		return fmt.Errorf("graph: Col/Val length %d/%d, want %d", len(m.Col), len(m.Val), nnz)
	}
	n := int32(m.NumVertices)
	for i, c := range m.Col {
		if c < 0 || c >= n {
			return fmt.Errorf("graph: Col[%d]=%d out of range [0,%d)", i, c, n)
		}
	}
	return nil
}

// FromCOO builds a CSR matrix from an edge list, summing duplicate edges.
// Edges with zero weight are kept (the generators only emit non-zero
// weights, but callers may construct explicit zeros for testing).
//
// An edge list whose weights all have the same bits, as every generated
// graph's do, is built in O(E + V) by fromUniformCOO. Any other list is
// bucketed by row and each row sorted by sortRowsAndCoalesce. The split
// follows the input alone, and both paths give a uniform-weight list
// the same CSR bit for bit.
func FromCOO(c *COO) (*CSR, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if w, ok := uniformWeight(c.Edges); ok {
		return fromUniformCOO(c, w), nil
	}
	n := c.NumVertices
	// Count per-row entries.
	counts := make([]int64, n+1)
	for _, e := range c.Edges {
		counts[e.Src+1]++
	}
	rowPtr := make([]int64, n+1)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = rowPtr[i] + counts[i+1]
	}
	col := make([]int32, len(c.Edges))
	val := make([]float64, len(c.Edges))
	next := make([]int64, n)
	copy(next, rowPtr[:n])
	for _, e := range c.Edges {
		p := next[e.Src]
		col[p] = e.Dst
		val[p] = e.Weight
		next[e.Src] = p + 1
	}
	m := &CSR{NumVertices: n, RowPtr: rowPtr, Col: col, Val: val}
	m.sortRowsAndCoalesce()
	return m, nil
}

// uniformWeight returns the weight of the edges and true when every
// weight has the same bits (math.Float64bits, so one NaN matches only
// itself and -0 does not match +0). An empty list is uniform.
func uniformWeight(edges []Edge) (float64, bool) {
	if len(edges) == 0 {
		return 0, true
	}
	w := edges[0].Weight
	bits := math.Float64bits(w)
	for _, e := range edges[1:] {
		if math.Float64bits(e.Weight) != bits {
			return 0, false
		}
	}
	return w, true
}

// fromUniformCOO builds the CSR of a validated edge list whose weights
// all have w's bits, with two counting sorts. The first buckets every
// edge's source by column. The second walks those buckets in column
// order and appends each column to its source's row, so every row comes
// out sorted by column with its duplicates adjacent. A run of k equal
// columns is coalesced to w + w + ... + w, k terms added left to right.
// Equal terms sum to the same bits in any order, so this matches
// sortRowsAndCoalesce whatever order pdqsort leaves equal columns in;
// k*w could round differently. Positions are int64, so no edge count
// overflows them.
func fromUniformCOO(c *COO, w float64) *CSR {
	n := c.NumVertices
	colPtr := make([]int64, n+1)
	rowPtr := make([]int64, n+1)
	for _, e := range c.Edges {
		colPtr[e.Dst+1]++
		rowPtr[e.Src+1]++
	}
	for i := 0; i < n; i++ {
		colPtr[i+1] += colPtr[i]
		rowPtr[i+1] += rowPtr[i]
	}
	// srcByCol[colPtr[d]:colPtr[d+1]] holds the sources of column d.
	srcByCol := make([]int32, len(c.Edges))
	next := make([]int64, n)
	copy(next, colPtr[:n])
	for _, e := range c.Edges {
		srcByCol[next[e.Dst]] = e.Src
		next[e.Dst]++
	}
	col := make([]int32, len(c.Edges))
	copy(next, rowPtr[:n])
	for d := 0; d < n; d++ {
		for _, s := range srcByCol[colPtr[d]:colPtr[d+1]] {
			col[next[s]] = int32(d)
			next[s]++
		}
	}
	// Coalesce in place. Row u is read from [rowPtr[u], rowPtr[u+1])
	// before rowPtr[u] is moved down to its compacted start.
	val := make([]float64, len(col))
	out := int64(0)
	for u := 0; u < n; u++ {
		lo, hi := rowPtr[u], rowPtr[u+1]
		rowPtr[u] = out
		for i := lo; i < hi; {
			sum := w
			j := i + 1
			for ; j < hi && col[j] == col[i]; j++ {
				sum += w
			}
			col[out] = col[i]
			val[out] = sum
			out++
			i = j
		}
	}
	rowPtr[n] = out
	return &CSR{NumVertices: n, RowPtr: rowPtr, Col: col[:out], Val: val[:out]}
}

// sortRowsAndCoalesce sorts each row by column index and merges duplicate
// columns by summing their weights, compacting the arrays in place. The
// sort is unstable on purpose: the order pdqsort leaves equal columns in
// is the order duplicate weights are summed in, and every weighted CSR
// built so far depends on it (TestFromCOOMatchesSortSliceReference pins
// it). A stable or counting sort would change the last bits of sums of
// three or more duplicates whose weights differ. Edge lists of one
// shared weight, where that order cannot show, take fromUniformCOO.
func (m *CSR) sortRowsAndCoalesce() {
	outPtr := make([]int64, m.NumVertices+1)
	// Each row is copied out before it is appended back, and a row never
	// grows, so the appends only overwrite entries already copied.
	col, val := m.Col[:0], m.Val[:0]
	scratch := make([]colVal, 0, 64)
	for u := 0; u < m.NumVertices; u++ {
		lo, hi := m.RowPtr[u], m.RowPtr[u+1]
		scratch = scratch[:0]
		for i := lo; i < hi; i++ {
			scratch = append(scratch, colVal{m.Col[i], m.Val[i]})
		}
		outPtr[u] = int64(len(col))
		col, val = appendSortedRow(col, val, scratch)
	}
	outPtr[m.NumVertices] = int64(len(col))
	m.RowPtr, m.Col, m.Val = outPtr, col, val
}

// colVal is one (column, weight) entry of a row being sorted.
type colVal struct {
	c int32
	v float64
}

// appendSortedRow sorts row by column with pdqsort and appends it to col
// and val, each run of equal columns summed in the sorted order into one
// entry.
func appendSortedRow(col []int32, val []float64, row []colVal) ([]int32, []float64) {
	slices.SortFunc(row, func(a, b colVal) int { return cmp.Compare(a.c, b.c) })
	for i := 0; i < len(row); {
		j := i + 1
		sum := row[i].v
		for j < len(row) && row[j].c == row[i].c {
			sum += row[j].v
			j++
		}
		col = append(col, row[i].c)
		val = append(val, sum)
		i = j
	}
	return col, val
}

// Transpose returns the transposed matrix (in-edges become out-edges).
func (m *CSR) Transpose() *CSR {
	n := m.NumVertices
	nnz := m.NumEdges()
	counts := make([]int64, n+1)
	for _, c := range m.Col {
		counts[c+1]++
	}
	rowPtr := make([]int64, n+1)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = rowPtr[i] + counts[i+1]
	}
	col := make([]int32, nnz)
	val := make([]float64, nnz)
	next := make([]int64, n)
	copy(next, rowPtr[:n])
	for u := 0; u < n; u++ {
		lo, hi := m.RowPtr[u], m.RowPtr[u+1]
		for i := lo; i < hi; i++ {
			c := m.Col[i]
			p := next[c]
			col[p] = int32(u)
			val[p] = m.Val[i]
			next[c] = p + 1
		}
	}
	return &CSR{NumVertices: n, RowPtr: rowPtr, Col: col, Val: val}
}

// AddSelfLoops returns a copy of m with weight-w self loops added to every
// vertex (merged with existing diagonal entries): bit for bit the CSR
// FromCOO builds from m's entries with (u, u, w) after row u's. A row
// whose columns strictly increase, as in every CSR FromCOO builds, takes
// its diagonal by a merge; a merged diagonal sums two weights, so the
// order of the sum cannot show. Any other row goes through FromCOO's
// per-row sort and coalescing.
func (m *CSR) AddSelfLoops(w float64) *CSR {
	n := m.NumVertices
	rowPtr := make([]int64, n+1)
	col := make([]int32, 0, len(m.Col)+n)
	val := make([]float64, 0, len(m.Col)+n)
	var scratch []colVal
	for u := 0; u < n; u++ {
		cols, vals := m.Row(u)
		d := int32(u)
		if strictlyIncreasing(cols) {
			i, found := slices.BinarySearch(cols, d)
			col = append(append(col, cols[:i]...), d)
			val = append(val, vals[:i]...)
			if found {
				val = append(val, vals[i]+w)
				i++
			} else {
				val = append(val, w)
			}
			col = append(col, cols[i:]...)
			val = append(val, vals[i:]...)
		} else {
			scratch = scratch[:0]
			for i, c := range cols {
				scratch = append(scratch, colVal{c, vals[i]})
			}
			scratch = append(scratch, colVal{d, w})
			col, val = appendSortedRow(col, val, scratch)
		}
		rowPtr[u+1] = int64(len(col))
	}
	return &CSR{NumVertices: n, RowPtr: rowPtr, Col: col, Val: val}
}

// strictlyIncreasing reports whether cols is sorted with no repeats.
func strictlyIncreasing(cols []int32) bool {
	for i := 1; i < len(cols); i++ {
		if cols[i-1] >= cols[i] {
			return false
		}
	}
	return true
}

// NormalizeGCN returns the symmetric GCN normalization
// Ã = D^{-1/2} (A + I) D^{-1/2} where D is the degree matrix of A + I.
// This is the adjacency operator in H1 = σ(Ã·H0·W0) (Section II-A).
func NormalizeGCN(a *CSR) *CSR {
	withLoops := a.AddSelfLoops(1)
	n := withLoops.NumVertices
	deg := make([]float64, n)
	for u := 0; u < n; u++ {
		lo, hi := withLoops.RowPtr[u], withLoops.RowPtr[u+1]
		for i := lo; i < hi; i++ {
			deg[u] += withLoops.Val[i]
		}
	}
	inv := make([]float64, n)
	for u, d := range deg {
		if d > 0 {
			inv[u] = 1 / math.Sqrt(d)
		}
	}
	out := &CSR{
		NumVertices: n,
		RowPtr:      withLoops.RowPtr,
		Col:         withLoops.Col,
		Val:         make([]float64, len(withLoops.Val)),
	}
	for u := 0; u < n; u++ {
		lo, hi := out.RowPtr[u], out.RowPtr[u+1]
		for i := lo; i < hi; i++ {
			out.Val[i] = inv[u] * withLoops.Val[i] * inv[withLoops.Col[i]]
		}
	}
	return out
}

// Stats summarizes the structural properties that the paper's
// characterization depends on: scale |V|, sparsity |E|, density
// δ = |E| / |V|², and the degree distribution skew.
type Stats struct {
	NumVertices int
	NumEdges    int64
	Density     float64
	AvgDegree   float64
	MaxDegree   int64
	// DegreeCV is the coefficient of variation (stddev/mean) of the
	// out-degree distribution: ~0 for uniform graphs, large for
	// power-law (RMAT) graphs. It feeds the locality model.
	DegreeCV float64
}

// ComputeStats derives Stats from a CSR matrix.
func ComputeStats(m *CSR) Stats {
	n := m.NumVertices
	e := m.NumEdges()
	s := Stats{NumVertices: n, NumEdges: e}
	if n == 0 {
		return s
	}
	s.Density = float64(e) / (float64(n) * float64(n))
	s.AvgDegree = float64(e) / float64(n)
	var sumSq float64
	for u := 0; u < n; u++ {
		d := m.Degree(u)
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		diff := float64(d) - s.AvgDegree
		sumSq += diff * diff
	}
	if s.AvgDegree > 0 {
		s.DegreeCV = math.Sqrt(sumSq/float64(n)) / s.AvgDegree
	}
	return s
}

// MemoryFootprint returns the bytes needed to hold the CSR structure with
// the given index/value widths. It matches Equation 1's accounting with
// B_R bytes per row pointer, B_C per column index and B_N per non-zero.
func (m *CSR) MemoryFootprint(bRow, bCol, bVal int) int64 {
	return int64(m.NumVertices+1)*int64(bRow) + m.NumEdges()*int64(bCol+bVal)
}
