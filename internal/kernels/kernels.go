// Package kernels defines the numerical kernels the thesis benchmarks and
// models: the DAXPY kernel used by bspbench and bspinprod, the 5-point
// Laplacian stencil of Case Study II, and the single-precision level-1 BLAS
// selection of Figs. 4.5/4.6 (swap, scal, copy, axpy, dot, nrm2, asum,
// iamax). Each kernel carries the operation and traffic counts the modeling
// framework needs (flops per element, bytes per element, and the derived
// arithmetic intensity); RunDot is the reference inner product example
// programs compute real values with.
package kernels

import (
	"errors"
	"math"
)

// Kernel describes a numerical kernel in the units the performance model
// uses.
type Kernel struct {
	// Name is the kernel identifier ("daxpy", "stencil5", "dot", ...).
	Name string
	// FlopsPerElement is the number of floating-point operations applied per
	// element of the problem.
	FlopsPerElement float64
	// BytesPerElement is the memory traffic caused per element (reads and
	// writes), assuming streaming access with no temporal reuse beyond
	// registers.
	BytesPerElement float64
	// WordsPerElement is the number of distinct vector operands touched per
	// element; it converts a problem size n into the memory footprint used
	// for cache-level classification (Figs. 4.5/4.6 express problem size in
	// bytes via this factor).
	WordsPerElement int
}

// Intensity returns the arithmetic intensity in flops per byte.
func (k Kernel) Intensity() float64 {
	if k.BytesPerElement == 0 {
		return math.Inf(1)
	}
	return k.FlopsPerElement / k.BytesPerElement
}

// FootprintBytes returns the memory footprint of applying the kernel to n
// elements of 8-byte words.
func (k Kernel) FootprintBytes(n int) float64 {
	return float64(n) * float64(k.WordsPerElement) * 8
}

// Flops returns the total floating-point operation count for n elements.
func (k Kernel) Flops(n int) float64 { return float64(n) * k.FlopsPerElement }

// Bytes returns the total memory traffic for n elements.
func (k Kernel) Bytes(n int) float64 { return float64(n) * k.BytesPerElement }

// String returns the kernel name.
func (k Kernel) String() string { return k.Name }

// The kernel catalogue. Byte counts assume double-precision (8-byte) words
// and count one read per input operand and one write per output element.
var (
	// DAXPY computes y[i] = y[i] + a*x[i]: 2 flops, read x and y, write y.
	DAXPY = Kernel{Name: "daxpy", FlopsPerElement: 2, BytesPerElement: 24, WordsPerElement: 2}
	// Stencil5 computes the 5-point Laplacian update: 4 additions and 2
	// multiplications per interior point; with streaming reuse of the three
	// active rows, traffic is roughly one read and one write per point.
	Stencil5 = Kernel{Name: "stencil5", FlopsPerElement: 6, BytesPerElement: 16, WordsPerElement: 2}

	// Level-1 BLAS selection (single/double precision vector-vector ops).
	Swap  = Kernel{Name: "swap", FlopsPerElement: 0, BytesPerElement: 32, WordsPerElement: 2}
	Scal  = Kernel{Name: "scal", FlopsPerElement: 1, BytesPerElement: 16, WordsPerElement: 1}
	Copy  = Kernel{Name: "copy", FlopsPerElement: 0, BytesPerElement: 16, WordsPerElement: 2}
	Axpy  = Kernel{Name: "axpy", FlopsPerElement: 2, BytesPerElement: 24, WordsPerElement: 2}
	Dot   = Kernel{Name: "dot", FlopsPerElement: 2, BytesPerElement: 16, WordsPerElement: 2}
	Nrm2  = Kernel{Name: "nrm2", FlopsPerElement: 2, BytesPerElement: 8, WordsPerElement: 1}
	Asum  = Kernel{Name: "asum", FlopsPerElement: 1, BytesPerElement: 8, WordsPerElement: 1}
	Iamax = Kernel{Name: "iamax", FlopsPerElement: 1, BytesPerElement: 8, WordsPerElement: 1}
)

// BLAS1 is the level-1 BLAS kernel set in the order of Figs. 4.5/4.6.
func BLAS1() []Kernel {
	return []Kernel{Swap, Scal, Copy, Axpy, Dot, Nrm2, Asum, Iamax}
}

// ErrLength is returned when operand lengths do not match.
var ErrLength = errors.New("kernels: operand length mismatch")

// RunDot returns the inner product of x and y.
func RunDot(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, ErrLength
	}
	sum := 0.0
	for i := range x {
		sum += x[i] * y[i]
	}
	return sum, nil
}
