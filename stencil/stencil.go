// Package stencil is the public surface of Case Study II: the 5-point
// Laplacian stencil in its BSP (overlapping), MPI, restructured-MPI and
// hybrid variants, executed on a simulated cluster, plus the model apparatus
// that predicts iteration times and picks the computation/communication
// overlap split.
package stencil

import (
	istencil "hbsp/internal/stencil"

	"hbsp/bsp"
	"hbsp/cluster"
	"hbsp/collective"
	"hbsp/model"
)

// Config describes one stencil problem (grid size, iterations, coefficient).
type Config = istencil.Config

// RunResult summarizes one simulated stencil run.
type RunResult = istencil.RunResult

// OverlapPoint is one (fraction, predicted time) sample of the overlap
// sweep.
type OverlapPoint = istencil.OverlapPoint

// Prediction is a superstep-model prediction (per-process compute times,
// communication and synchronization terms, total).
type Prediction = model.Prediction

// RunBSP executes the overlapping BSP variant.
func RunBSP(m *cluster.Machine, cfg Config, overlapFraction float64) (*RunResult, error) {
	return istencil.RunBSP(m, cfg, overlapFraction)
}

// BSPProgram returns the BSP body of the Jacobi kernel as a standalone
// bsp.Program for execution through an hbsp.Session (which adds contexts,
// seeds, fault plans and trace recorders to the bare RunBSP path). checksums,
// when non-nil, must have procs entries and receives each rank's final grid
// checksum.
func BSPProgram(procs int, cfg Config, overlapFraction float64, checksums []float64) (bsp.Program, error) {
	return istencil.BSPProgram(procs, cfg, overlapFraction, checksums)
}

// RunMPI executes the straightforward MPI variant.
func RunMPI(m *cluster.Machine, cfg Config) (*RunResult, error) { return istencil.RunMPI(m, cfg) }

// RunMPIRestructured executes the communication-restructured MPI variant.
func RunMPIRestructured(m *cluster.Machine, cfg Config) (*RunResult, error) {
	return istencil.RunMPIRestructured(m, cfg)
}

// RunHybrid executes the hybrid (threads within a node) variant.
func RunHybrid(prof *cluster.Profile, nodes int, cfg Config, threadEfficiency float64) (*RunResult, error) {
	return istencil.RunHybrid(prof, nodes, cfg, threadEfficiency)
}

// PredictIteration predicts the time of one stencil iteration.
func PredictIteration(prof *cluster.Profile, params collective.Params, procs int, cfg Config, overlapFraction float64) (*Prediction, error) {
	return istencil.PredictIteration(prof, params, procs, cfg, overlapFraction)
}

// PredictOverlapSweep predicts iteration times across overlap fractions.
func PredictOverlapSweep(prof *cluster.Profile, params collective.Params, procs int, cfg Config, fractions []float64) ([]OverlapPoint, error) {
	return istencil.PredictOverlapSweep(prof, params, procs, cfg, fractions)
}

// OptimalOverlap picks the best overlap fraction from a sweep.
func OptimalOverlap(points []OverlapPoint, tolerance float64) (OverlapPoint, error) {
	return istencil.OptimalOverlap(points, tolerance)
}

// GroundTruthParams returns the profile's exact parameter matrices for a
// process count (no benchmarking noise).
func GroundTruthParams(prof *cluster.Profile, procs int) (collective.Params, error) {
	return istencil.GroundTruthParams(prof, procs)
}
