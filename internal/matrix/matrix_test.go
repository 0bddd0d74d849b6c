package matrix

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDenseDimensions(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("got %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewDenseFromRagged(t *testing.T) {
	if _, err := NewDenseFrom([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestSetAtAdd(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 3.5)
	m.Add(0, 1, 1.5)
	if got := m.At(0, 1); got != 5 {
		t.Fatalf("At(0,1) = %v, want 5", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range access")
		}
	}()
	NewDense(2, 2).At(2, 0)
}

func TestClone(t *testing.T) {
	m := MustDense([][]float64{{1, 2, 3}, {4, 5, 6}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone is not independent of the original")
	}
}

func TestTranspose(t *testing.T) {
	m := MustDense([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d, want 3x2", tr.Rows(), tr.Cols())
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("transpose values wrong: %v", tr)
	}
}

func TestAddSubHadamard(t *testing.T) {
	a := MustDense([][]float64{{1, 2}, {3, 4}})
	b := MustDense([][]float64{{5, 6}, {7, 8}})
	sum, err := a.AddTo(b)
	if err != nil {
		t.Fatal(err)
	}
	if sum.At(1, 1) != 12 {
		t.Fatalf("AddTo wrong: %v", sum)
	}
	had, err := a.Hadamard(b)
	if err != nil {
		t.Fatal(err)
	}
	if had.At(1, 0) != 21 {
		t.Fatalf("Hadamard wrong: %v", had)
	}
}

func TestShapeMismatchErrors(t *testing.T) {
	a := NewDense(2, 2)
	b := NewDense(3, 2)
	if _, err := a.AddTo(b); err == nil {
		t.Fatal("AddTo should fail on shape mismatch")
	}
	if _, err := a.Hadamard(b); err == nil {
		t.Fatal("Hadamard should fail on shape mismatch")
	}
	if _, err := a.Mul(NewDense(3, 3)); err == nil {
		t.Fatal("Mul should fail on inner dimension mismatch")
	}
}

func TestMul(t *testing.T) {
	a := MustDense([][]float64{{1, 2}, {3, 4}})
	b := MustDense([][]float64{{5, 6}, {7, 8}})
	prod, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := MustDense([][]float64{{19, 22}, {43, 50}})
	if !prod.Equal(want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", prod, want)
	}
}

func TestIdentityMulIsNoop(t *testing.T) {
	a := MustDense([][]float64{{1, 2}, {3, 4}})
	prod, err := Identity(2).Mul(a)
	if err != nil {
		t.Fatal(err)
	}
	if !prod.Equal(a, 0) {
		t.Fatalf("I·A != A: %v", prod)
	}
}

func TestMaxMinScaleFill(t *testing.T) {
	a := MustDense([][]float64{{-1, 2}, {3, -4}})
	if a.Max() != 3 {
		t.Fatalf("Max = %v", a.Max())
	}
	a.Fill(7)
	if a.At(0, 1) != 7 {
		t.Fatalf("Fill wrong: %v", a)
	}
}

func TestStringRendering(t *testing.T) {
	s := MustDense([][]float64{{1, 2}}).String()
	if s != "[1 2]\n" {
		t.Fatalf("String() = %q", s)
	}
}

// Property: (A^T)^T == A for arbitrary small matrices.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(vals [6]float64) bool {
		a := MustDense([][]float64{vals[:3], vals[3:]})
		return a.Transpose().Transpose().Equal(a, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Hadamard product is commutative.
func TestHadamardCommutativityProperty(t *testing.T) {
	f := func(a, b [4]float64) bool {
		ma := MustDense([][]float64{a[:2], a[2:]})
		mb := MustDense([][]float64{b[:2], b[2:]})
		ab, err1 := ma.Hadamard(mb)
		ba, err2 := mb.Hadamard(ma)
		if err1 != nil || err2 != nil {
			return false
		}
		return ab.Equal(ba, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A matrix-vector product is Mul by a one-column matrix; with the
// all-ones column it gives the row sums.
func TestMulVecAndRowSums(t *testing.T) {
	a := MustDense([][]float64{{1, 2, 3}, {4, 5, 6}})
	v, err := a.Mul(MustDense([][]float64{{1}, {1}, {1}}))
	if err != nil {
		t.Fatal(err)
	}
	sums := a.RowSums()
	for i := range sums {
		if v.At(i, 0) != sums[i] {
			t.Fatalf("Mul by ones %v != RowSums %v", v, sums)
		}
	}
	if sums[0] != 6 || sums[1] != 15 {
		t.Fatalf("RowSums = %v", sums)
	}
}

// Property: row sums equal multiplication by the all-ones column.
func TestRowSumsEqualsOnesVectorProperty(t *testing.T) {
	ones := MustDense([][]float64{{1}, {1}, {1}})
	f := func(vals [9]float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 0
			}
		}
		a := MustDense([][]float64{vals[:3], vals[3:6], vals[6:]})
		v, err := a.Mul(ones)
		if err != nil {
			return false
		}
		s := a.RowSums()
		for i := range s {
			if v.At(i, 0) != s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
