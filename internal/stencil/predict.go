package stencil

import (
	"errors"
	"fmt"

	"hbsp/internal/barrier"
	"hbsp/internal/core"
	"hbsp/internal/kernels"
	"hbsp/internal/matrix"
	"hbsp/internal/platform"
)

// ModelSetup is the application-specific matrix setup of Fig. 8.8: the
// requirement and cost matrices of one stencil iteration, the pairwise
// communication requirements, and the synchronization cost estimate.
type ModelSetup struct {
	// Superstep is the assembled heterogeneous superstep model.
	Superstep core.Superstep
	// Decomposition is the underlying domain decomposition.
	Decomposition Decomposition
	// SyncCost is the predicted cost of the count-exchange synchronization.
	SyncCost float64
}

// BuildModel assembles the framework's matrices for one iteration of the BSP
// stencil on the given platform and process count (the predictor program of
// Fig. 8.9 evaluates this model). Communication parameters come from the
// supplied barrier params (normally produced by the pairwise benchmark);
// kernel costs come from the platform profile's calibrated rates.
func BuildModel(prof *platform.Profile, params barrier.Params, procs int, cfg Config, overlapFraction float64) (*ModelSetup, error) {
	if prof == nil {
		return nil, errors.New("stencil: nil profile")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if overlapFraction < 0 || overlapFraction > 1 {
		return nil, fmt.Errorf("stencil: overlap fraction %g outside [0,1]", overlapFraction)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if params.Procs() != procs {
		return nil, fmt.Errorf("stencil: params describe %d processes, want %d", params.Procs(), procs)
	}
	d, err := Decompose(cfg.N, procs)
	if err != nil {
		return nil, err
	}
	pl, err := prof.Place(procs)
	if err != nil {
		return nil, err
	}

	// Requirement and cost matrices over two kernels: the stencil update and
	// the pack/unpack copies.
	req := matrix.NewDense(procs, 2)
	cost := matrix.NewDense(procs, 2)
	msgs := matrix.NewDense(procs, procs)
	data := matrix.NewDense(procs, procs)

	var totalDeepFraction float64
	for rank := 0; rank < procs; rank++ {
		h := haloOf(d, rank, overlapFraction)
		cells := h.deep + h.shadow
		for dir, nb := range h.neigh {
			if nb >= 0 {
				msgs.Add(rank, nb, 1)
				data.Add(rank, nb, float64(8*h.edge[dir]))
			}
		}
		req.Set(rank, 0, float64(cells))
		req.Set(rank, 1, float64(2*h.exchanged)) // pack + unpack
		node := pl.NodeOf(rank)
		cost.Set(rank, 0, prof.SecondsPerElement(node, kernels.Stencil5, cells))
		cost.Set(rank, 1, prof.SecondsPerElement(node, kernels.Copy, max(h.exchanged, 1)))
		totalDeepFraction = max(totalDeepFraction, float64(h.deep)/float64(cells))
	}

	// Synchronization cost: the dissemination count exchange with its
	// doubling payload (Section 6.5).
	diss, err := barrier.Dissemination(procs)
	if err != nil {
		return nil, err
	}
	syncPred, err := barrier.Predict(barrier.KnowledgeSized(diss, 0, 4*procs), params, barrier.DefaultCostOptions())
	if err != nil {
		return nil, err
	}

	setup := &ModelSetup{Decomposition: d, SyncCost: syncPred.Total}
	setup.Superstep = core.Superstep{
		Compute: core.ComputeModel{Requirement: req, Cost: cost},
		Comm: core.CommModel{
			Messages: msgs,
			Latency:  params.Latency,
			Data:     data,
			Beta:     params.Beta,
		},
		SyncCost:     syncPred.Total,
		MaskableComm: 1,
		MaskableComp: overlapFraction * totalDeepFraction,
	}
	return setup, nil
}

// PredictIteration evaluates the model and returns the predicted time of one
// stencil iteration (superstep).
func PredictIteration(prof *platform.Profile, params barrier.Params, procs int, cfg Config, overlapFraction float64) (*core.Prediction, error) {
	setup, err := BuildModel(prof, params, procs, cfg, overlapFraction)
	if err != nil {
		return nil, err
	}
	return setup.Superstep.Predict()
}

// OverlapPoint is one point of the Section 8.6 adaptation sweep.
type OverlapPoint struct {
	// Fraction is the share of the ghost-independent interior computed
	// inside the overlap window.
	Fraction float64
	// Predicted is the model's iteration-time prediction.
	Predicted float64
	// Measured is the simulated iteration time (filled by the experiment
	// harness; zero when only predictions were requested).
	Measured float64
}

// PredictOverlapSweep predicts the iteration time across a sweep of overlap
// fractions (Fig. 8.17/8.18).
func PredictOverlapSweep(prof *platform.Profile, params barrier.Params, procs int, cfg Config, fractions []float64) ([]OverlapPoint, error) {
	out := make([]OverlapPoint, 0, len(fractions))
	for _, f := range fractions {
		pred, err := PredictIteration(prof, params, procs, cfg, f)
		if err != nil {
			return nil, err
		}
		out = append(out, OverlapPoint{Fraction: f, Predicted: pred.Total})
	}
	return out, nil
}

// OptimalOverlap returns the smallest overlap fraction whose predicted
// iteration time is within tolerance of the sweep minimum — the "balanced"
// split of computation around the communication the thesis' model-driven
// optimization selects.
func OptimalOverlap(points []OverlapPoint, tolerance float64) (OverlapPoint, error) {
	if len(points) == 0 {
		return OverlapPoint{}, errors.New("stencil: empty overlap sweep")
	}
	if tolerance <= 0 {
		tolerance = 0.02
	}
	best := points[0].Predicted
	for _, p := range points[1:] {
		if p.Predicted < best {
			best = p.Predicted
		}
	}
	for _, p := range points {
		if p.Predicted <= best*(1+tolerance) {
			return p, nil
		}
	}
	return points[len(points)-1], nil
}

// GroundTruthParams builds barrier cost-model parameters directly from the
// profile's ground-truth matrices; experiments that do not want to spend time
// on the pairwise benchmark use it in place of bench.MeasurePairwise.
func GroundTruthParams(prof *platform.Profile, procs int) (barrier.Params, error) {
	pl, err := prof.Place(procs)
	if err != nil {
		return barrier.Params{}, err
	}
	return barrier.Params{
		Latency:  prof.LatencyMatrix(pl),
		Overhead: prof.OverheadMatrix(pl),
		Beta:     prof.BetaMatrix(pl),
	}, nil
}
