// Package tensor provides the dense-matrix substrate of the GCN update
// phase: row-major float64 matrices, a cache-blocked parallel dense
// matrix multiply (the "Dense MM" of the paper), and the element-wise
// activation that the paper accounts under "Glue Code".
package tensor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New allocates a zeroed Rows×Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewRandom fills a matrix with deterministic uniform values in [-s, s].
func NewRandom(rows, cols int, scale float64, seed int64) *Matrix {
	m := New(rows, cols)
	rng := rand.New(rand.NewSource(seed))
	for i := range m.Data {
		m.Data[i] = (2*rng.Float64() - 1) * scale
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// ErrShape is returned when operand dimensions do not line up.
var ErrShape = errors.New("tensor: shape mismatch")

// MatMul computes C = A·B serially. It is the reference implementation
// that the parallel version is property-tested against.
func MatMul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("%w: (%dx%d)·(%dx%d)", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
	return c, nil
}

// ParMatMul computes C = A·B with row-block parallelism across workers
// goroutines (0 means GOMAXPROCS). This is the "Dense MM" kernel used by
// the functional GCN path; the i-k-j loop order keeps the inner loop
// streaming over contiguous rows of B and C.
func ParMatMul(a, b *Matrix, workers int) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("%w: (%dx%d)·(%dx%d)", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > a.Rows {
		workers = a.Rows
	}
	c := New(a.Rows, b.Cols)
	if workers <= 1 || a.Rows == 0 {
		mulRange(a, b, c, 0, a.Rows)
		return c, nil
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mulRange(a, b, c, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return c, nil
}

func mulRange(a, b, c *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
}

// ReLU applies max(0, x) element-wise in place and returns m. In the
// paper's accounting this is part of "Glue Code".
func ReLU(m *Matrix) *Matrix {
	for i, v := range m.Data {
		if v < 0 {
			m.Data[i] = 0
		}
	}
	return m
}

// AlmostEqual reports whether a and b have the same shape and every
// element within tol (absolute + relative).
func AlmostEqual(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		diff := math.Abs(a.Data[i] - b.Data[i])
		if diff > tol*(1+math.Abs(b.Data[i])) {
			return false
		}
	}
	return true
}

// MaxAbs returns the largest absolute value in m (0 for empty matrices).
func MaxAbs(m *Matrix) float64 {
	max := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// FrobeniusNorm returns sqrt(sum of squares).
func FrobeniusNorm(m *Matrix) float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}
