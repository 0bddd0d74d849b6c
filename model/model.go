// Package model is the public surface of the heterogeneous superstep cost
// model — the thesis' replacement of the scalar BSP cost function: per-rank
// compute requirements priced by per-kernel cost matrices (ComputeModel),
// pairwise message and data matrices priced by latency and inverse-bandwidth
// matrices (CommModel), a synchronization term, and maskable overlap
// factors. A Superstep combines the three and Predict returns per-process
// and total time. The classic scalar model (ClassicParams) is kept for the
// Chapter 3 comparison.
package model

import (
	"hbsp/internal/core"

	"hbsp/matrix"
)

// ComputeModel prices per-rank computation from requirement and cost
// matrices.
type ComputeModel = core.ComputeModel

// CommModel prices pairwise communication from message, data, latency and
// inverse-bandwidth matrices.
type CommModel = core.CommModel

// Superstep is one heterogeneous BSP superstep: computation, communication,
// synchronization and their overlap factors.
type Superstep = core.Superstep

// Prediction holds the predicted per-process and total superstep times.
type Prediction = core.Prediction

// ClassicParams are the scalar bspbench parameters of the classic BSP cost
// model.
type ClassicParams = core.ClassicParams

// Imbalance returns the relative load imbalance of per-process times.
func Imbalance(times []float64) float64 { return core.Imbalance(times) }

// UniformRequirement builds the P×K requirement matrix assigning the same
// per-kernel element counts to every process.
func UniformRequirement(p int, perKernel []float64) *matrix.Dense {
	return core.UniformRequirement(p, perKernel)
}
