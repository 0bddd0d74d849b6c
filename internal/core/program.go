package core

import (
	"errors"
	"fmt"
)

// Program models a bulk-synchronous application as a sequence of supersteps,
// each with its own requirement/cost matrices, communication pattern and
// synchronization cost. The thesis' framework predicts whole-program cost by
// summing the superstep predictions (bulk-synchronous semantics make the
// supersteps sequentially dependent); iterative applications such as the
// stencil repeat a single superstep many times.
type Program struct {
	// Name identifies the modelled application.
	Name string
	// Steps are the supersteps in execution order.
	Steps []Superstep
	// Repetitions optionally repeats each superstep the given number of
	// times (len(Repetitions) must equal len(Steps) when non-nil); an
	// iterative solver is one superstep with a large repetition count.
	Repetitions []int
}

// ProgramPrediction is the evaluated program model.
type ProgramPrediction struct {
	// StepPredictions holds the per-superstep predictions in order.
	StepPredictions []*Prediction
	// StepTotals holds each superstep's contribution (prediction × its
	// repetition count).
	StepTotals []float64
	// Total is the predicted program time.
	Total float64
	// ComputeTime and CommTime aggregate the slowest process' component
	// times over all supersteps, before overlap.
	ComputeTime float64
	CommTime    float64
	// SyncTime aggregates the synchronization costs.
	SyncTime float64
	// Overlap is the total time saved by overlapping, summed over the
	// slowest process of each superstep.
	Overlap float64
}

// Predict evaluates every superstep and combines them.
func (pr Program) Predict() (*ProgramPrediction, error) {
	if len(pr.Steps) == 0 {
		return nil, errors.New("core: program has no supersteps")
	}
	if pr.Repetitions != nil && len(pr.Repetitions) != len(pr.Steps) {
		return nil, fmt.Errorf("core: %d repetition counts for %d supersteps", len(pr.Repetitions), len(pr.Steps))
	}
	out := &ProgramPrediction{}
	for i, step := range pr.Steps {
		reps := 1
		if pr.Repetitions != nil {
			reps = pr.Repetitions[i]
			if reps < 0 {
				return nil, fmt.Errorf("core: superstep %d has negative repetition count", i)
			}
		}
		pred, err := step.Predict()
		if err != nil {
			return nil, fmt.Errorf("core: superstep %d: %w", i, err)
		}
		out.StepPredictions = append(out.StepPredictions, pred)
		total := pred.Total * float64(reps)
		out.StepTotals = append(out.StepTotals, total)
		out.Total += total

		worst := 0
		for p := range pred.PerProcess {
			if pred.PerProcess[p] > pred.PerProcess[worst] {
				worst = p
			}
		}
		out.ComputeTime += pred.CompTimes[worst] * float64(reps)
		out.CommTime += pred.CommTimes[worst] * float64(reps)
		out.SyncTime += step.SyncCost * float64(reps)
		out.Overlap += pred.Overlap[worst] * float64(reps)
	}
	return out, nil
}

// Speedup returns the predicted speedup of this prediction relative to a
// baseline prediction (baseline / this), e.g. an overlapped variant against a
// postponed-communication variant.
func (pp *ProgramPrediction) Speedup(baseline *ProgramPrediction) float64 {
	if pp == nil || baseline == nil || pp.Total <= 0 {
		return 0
	}
	return baseline.Total / pp.Total
}
