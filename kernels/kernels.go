// Package kernels is the public surface of the L1 BLAS-style computational
// kernels the framework models: each Kernel carries its arithmetic intensity
// and memory footprint (which drive the platform's rate model) plus a
// reference implementation for computing real values in simulated programs.
package kernels

import "hbsp/internal/kernels"

// Kernel describes one computational kernel.
type Kernel = kernels.Kernel

// The built-in kernels programs name directly; BLAS1 returns the whole L1
// set.
var (
	DAXPY = kernels.DAXPY
	Dot   = kernels.Dot
	Asum  = kernels.Asum
)

// ErrLength is returned by reference implementations on operand length
// mismatches.
var ErrLength = kernels.ErrLength

// BLAS1 returns the L1 BLAS kernel set of the rate experiments.
func BLAS1() []Kernel { return kernels.BLAS1() }

// RunDot computes the inner product of x and y.
func RunDot(x, y []float64) (float64, error) { return kernels.RunDot(x, y) }
