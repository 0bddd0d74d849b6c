// Package matrix provides the small dense-matrix toolkit used throughout the
// heterogeneous BSP performance-modeling framework.
//
// The framework of Meyer's thesis replaces the scalar BSP parameters with
// matrices: per-process/per-kernel requirement and cost matrices for
// computation, and P×P pairwise latency, overhead and inverse-bandwidth
// matrices for communication. This package implements the float64 matrix
// type and the handful of operations the model needs: element-wise
// (Hadamard) products, ordinary matrix products, row sums, and transposes.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix of float64 values.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates a rows×cols matrix of zeros.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseFrom builds a matrix from a slice of row slices. All rows must have
// equal length.
func NewDenseFrom(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 {
		return NewDense(0, 0), nil
	}
	cols := len(rows[0])
	m := NewDense(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("matrix: ragged input, row %d has %d columns, want %d", i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// MustDense is NewDenseFrom that panics on ragged input; intended for tests
// and literal fixtures.
func MustDense(rows [][]float64) *Dense {
	m, err := NewDenseFrom(rows)
	if err != nil {
		panic(err)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add increments element (i, j) by v.
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("matrix: dimension mismatch")

// AddTo returns m + other as a new matrix.
func (m *Dense) AddTo(other *Dense) (*Dense, error) {
	if m.rows != other.rows || m.cols != other.cols {
		return nil, fmt.Errorf("%w: %dx%d + %dx%d", ErrShape, m.rows, m.cols, other.rows, other.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] += other.data[i]
	}
	return out, nil
}

// Hadamard returns the element-wise (⊗) product of m and other. This is the
// product used in Eq. 3.13 of the thesis to combine requirement and cost
// matrices.
func (m *Dense) Hadamard(other *Dense) (*Dense, error) {
	if m.rows != other.rows || m.cols != other.cols {
		return nil, fmt.Errorf("%w: %dx%d ⊗ %dx%d", ErrShape, m.rows, m.cols, other.rows, other.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= other.data[i]
	}
	return out, nil
}

// Mul returns the ordinary matrix product m·other.
func (m *Dense) Mul(other *Dense) (*Dense, error) {
	if m.cols != other.rows {
		return nil, fmt.Errorf("%w: %dx%d · %dx%d", ErrShape, m.rows, m.cols, other.rows, other.cols)
	}
	out := NewDense(m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			for j := 0; j < other.cols; j++ {
				out.data[i*out.cols+j] += a * other.data[k*other.cols+j]
			}
		}
	}
	return out, nil
}

// RowSums returns the vector of per-row sums, i.e. m·s where s is the vector
// of all ones. The thesis uses this to collapse the per-kernel columns of the
// combined requirement⊗cost matrix into per-process superstep times.
func (m *Dense) RowSums() []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		sum := 0.0
		for j := 0; j < m.cols; j++ {
			sum += m.data[i*m.cols+j]
		}
		out[i] = sum
	}
	return out
}

// Max returns the maximum element; it returns 0 for an empty matrix.
func (m *Dense) Max() float64 {
	if len(m.data) == 0 {
		return 0
	}
	max := m.data[0]
	for _, v := range m.data[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// Equal reports whether m and other have the same shape and all elements are
// within tol of each other.
func (m *Dense) Equal(other *Dense, tol float64) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-other.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging and documentation output.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%g", m.data[i*m.cols+j])
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}
