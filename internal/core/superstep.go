package core

import (
	"errors"
	"fmt"

	"hbsp/internal/matrix"
)

// ComputeModel couples a p×k requirement matrix (how much data each process
// applies each kernel to) with a p×k cost matrix (seconds per requirement
// unit for each kernel on each processor). Per-process computation time is
// the row sum of the element-wise product (Eq. 3.13).
type ComputeModel struct {
	// Requirement holds, per process and kernel, the amount of work in the
	// unit the cost matrix prices (elements or bytes).
	Requirement *matrix.Dense
	// Cost holds, per process and kernel, the seconds per work unit.
	Cost *matrix.Dense
}

// Times returns the per-process computation times (R ⊗ C)·s.
func (cm ComputeModel) Times() ([]float64, error) {
	if cm.Requirement == nil || cm.Cost == nil {
		return nil, errors.New("core: compute model needs requirement and cost matrices")
	}
	prod, err := cm.Requirement.Hadamard(cm.Cost)
	if err != nil {
		return nil, fmt.Errorf("core: compute model: %w", err)
	}
	return prod.RowSums(), nil
}

// Imbalance returns the relative load imbalance of a time vector:
// (max − min) / max, or 0 for an empty or all-zero vector. The thesis uses
// the spread of the superstep time vector as its measure of heterogeneity.
func Imbalance(times []float64) float64 {
	if len(times) == 0 {
		return 0
	}
	min, max := times[0], times[0]
	for _, t := range times[1:] {
		if t < min {
			min = t
		}
		if t > max {
			max = t
		}
	}
	if max <= 0 {
		return 0
	}
	return (max - min) / max
}

// CommModel couples the pairwise communication requirements of a superstep
// (message counts and payload bytes) with the platform's pairwise latency and
// inverse-bandwidth matrices (Section 3.4, the heterogeneous Hockney model).
type CommModel struct {
	// Messages is the p×p matrix of message counts committed during the
	// superstep (row = sender, column = destination).
	Messages *matrix.Dense
	// Latency is the p×p pairwise latency matrix.
	Latency *matrix.Dense
	// Data is the p×p matrix of payload bytes.
	Data *matrix.Dense
	// Beta is the p×p pairwise inverse-bandwidth matrix (s/byte).
	Beta *matrix.Dense
}

// Times returns the per-process communication times
// (R_messages ⊗ C_latency + R_data ⊗ C_β)·s, evaluated from the sender's
// side as in Eq. 3.15.
func (cm CommModel) Times() ([]float64, error) {
	if cm.Messages == nil || cm.Latency == nil {
		return nil, errors.New("core: comm model needs message-count and latency matrices")
	}
	lat, err := cm.Messages.Hadamard(cm.Latency)
	if err != nil {
		return nil, fmt.Errorf("core: comm model latency term: %w", err)
	}
	total := lat
	if cm.Data != nil && cm.Beta != nil {
		bw, err := cm.Data.Hadamard(cm.Beta)
		if err != nil {
			return nil, fmt.Errorf("core: comm model bandwidth term: %w", err)
		}
		total, err = lat.AddTo(bw)
		if err != nil {
			return nil, err
		}
	}
	return total.RowSums(), nil
}

// Superstep is the unit of prediction: the computational and communication
// requirements of one superstep, the synchronization cost estimate, and the
// fractions of each that the run-time system can overlap.
type Superstep struct {
	// Compute describes the superstep's computation.
	Compute ComputeModel
	// Comm describes the superstep's communication.
	Comm CommModel
	// SyncCost is the predicted cost of the synchronization that ends the
	// superstep (from the barrier cost model).
	SyncCost float64
	// MaskableComp is the fraction (0..1) of the computation that may be
	// overlapped with communication (work not needed to produce outgoing
	// messages).
	MaskableComp float64
	// MaskableComm is the fraction (0..1) of the communication that may
	// proceed in the background (messages committed before the end of the
	// computation).
	MaskableComm float64
}

// Prediction is the outcome of evaluating a superstep model.
type Prediction struct {
	// CompTimes and CommTimes are the per-process component times.
	CompTimes []float64
	CommTimes []float64
	// PerProcess is the predicted superstep duration per process, excluding
	// synchronization.
	PerProcess []float64
	// Overlap is the per-process time saved by overlapping, summed into a
	// global value for reporting.
	Overlap []float64
	// Total is the predicted superstep time: the slowest process plus the
	// synchronization cost (Eq. 1.4).
	Total float64
}

// Predict evaluates Eq. 1.4 for the superstep:
//
//	T = (T_comp − T'_comp) + (T_comm − T'_comm) + max(T'_comp, T'_comm) + T_sync
//
// per process, where the primed quantities are the maskable parts.
func (s Superstep) Predict() (*Prediction, error) {
	if s.MaskableComp < 0 || s.MaskableComp > 1 || s.MaskableComm < 0 || s.MaskableComm > 1 {
		return nil, errors.New("core: maskable fractions must lie in [0, 1]")
	}
	if s.SyncCost < 0 {
		return nil, errors.New("core: negative synchronization cost")
	}
	compTimes, err := s.Compute.Times()
	if err != nil {
		return nil, err
	}
	commTimes, err := s.Comm.Times()
	if err != nil {
		return nil, err
	}
	if len(compTimes) != len(commTimes) {
		return nil, fmt.Errorf("core: compute model has %d processes, comm model has %d", len(compTimes), len(commTimes))
	}
	pred := &Prediction{CompTimes: compTimes, CommTimes: commTimes}
	pred.PerProcess = make([]float64, len(compTimes))
	pred.Overlap = make([]float64, len(compTimes))
	for i := range compTimes {
		maskComp := compTimes[i] * s.MaskableComp
		maskComm := commTimes[i] * s.MaskableComm
		serial := (compTimes[i] - maskComp) + (commTimes[i] - maskComm)
		overlapped := maskComp
		if maskComm > maskComp {
			overlapped = maskComm
		}
		pred.PerProcess[i] = serial + overlapped
		pred.Overlap[i] = compTimes[i] + commTimes[i] - pred.PerProcess[i]
	}
	worst := 0.0
	for _, t := range pred.PerProcess {
		if t > worst {
			worst = t
		}
	}
	pred.Total = worst + s.SyncCost
	return pred, nil
}

// UniformRequirement builds a p×k requirement matrix in which every process
// applies every kernel to the same amount of work; it is the common case for
// SPMD programs with block-balanced decompositions.
func UniformRequirement(p int, perKernel []float64) *matrix.Dense {
	m := matrix.NewDense(p, len(perKernel))
	for i := 0; i < p; i++ {
		for j, v := range perKernel {
			m.Set(i, j, v)
		}
	}
	return m
}
