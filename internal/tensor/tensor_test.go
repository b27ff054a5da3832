package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("Set/At roundtrip failed")
	}
	if m.Row(1)[2] != 5 {
		t.Fatal("Row aliasing failed")
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1, 2)
}

func TestCloneIsDeep(t *testing.T) {
	m := NewRandom(2, 2, 1, 1)
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) == 42 {
		t.Fatal("Clone shares storage")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	b := &Matrix{Rows: 3, Cols: 2, Data: []float64{7, 8, 9, 10, 11, 12}}
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("C[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMatMulShapeError(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	if _, err := MatMul(a, b); err == nil {
		t.Fatal("expected shape error")
	}
	if _, err := ParMatMul(a, b, 2); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestParMatMulMatchesSerial(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		a := NewRandom(37, 19, 1, 1)
		b := NewRandom(19, 23, 1, 2)
		want, _ := MatMul(a, b)
		got, err := ParMatMul(a, b, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !AlmostEqual(got, want, 1e-12) {
			t.Fatalf("workers=%d: parallel result differs", workers)
		}
	}
}

func TestParMatMulEmpty(t *testing.T) {
	a := New(0, 5)
	b := New(5, 3)
	c, err := ParMatMul(a, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows != 0 || c.Cols != 3 {
		t.Fatalf("empty product shape %dx%d", c.Rows, c.Cols)
	}
}

func TestReLU(t *testing.T) {
	m := &Matrix{Rows: 1, Cols: 4, Data: []float64{-1, 0, 2, -0.5}}
	ReLU(m)
	want := []float64{0, 0, 2, 0}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("ReLU[%d] = %v, want %v", i, m.Data[i], want[i])
		}
	}
}

func TestNorms(t *testing.T) {
	m := &Matrix{Rows: 1, Cols: 3, Data: []float64{3, -4, 0}}
	if MaxAbs(m) != 4 {
		t.Fatalf("MaxAbs = %v", MaxAbs(m))
	}
	if math.Abs(FrobeniusNorm(m)-5) > 1e-12 {
		t.Fatalf("Frobenius = %v", FrobeniusNorm(m))
	}
	if MaxAbs(New(0, 0)) != 0 {
		t.Fatal("MaxAbs of empty should be 0")
	}
}

func TestAlmostEqualShapes(t *testing.T) {
	if AlmostEqual(New(1, 2), New(2, 1), 1) {
		t.Fatal("different shapes must not compare equal")
	}
}

// Property: (A·B)·C == A·(B·C) within numerical tolerance.
func TestQuickAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		a := NewRandom(8, 6, 1, seed)
		b := NewRandom(6, 7, 1, seed+1)
		c := NewRandom(7, 5, 1, seed+2)
		ab, _ := MatMul(a, b)
		abc1, _ := MatMul(ab, c)
		bc, _ := MatMul(b, c)
		abc2, _ := MatMul(a, bc)
		return AlmostEqual(abc1, abc2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: multiplying by the identity is the identity.
func TestQuickIdentity(t *testing.T) {
	f := func(seed int64) bool {
		n := 9
		a := NewRandom(5, n, 1, seed)
		id := New(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
		}
		p, err := ParMatMul(a, id, 3)
		if err != nil {
			return false
		}
		return AlmostEqual(p, a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
