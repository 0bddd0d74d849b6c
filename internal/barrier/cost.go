package barrier

import (
	"errors"
	"fmt"
	"slices"

	"hbsp/internal/matrix"
	"hbsp/internal/sched"
)

// Params are the architectural performance matrices the barrier cost model
// consumes: pairwise wire latencies L, per-request overheads O (with the
// invocation overhead O_ii on the diagonal), and optionally pairwise inverse
// bandwidths β for patterns that carry payload.
type Params struct {
	// Latency is the P×P matrix of pairwise zero-length-message latencies.
	Latency *matrix.Dense
	// Overhead is the P×P matrix of per-request overheads; the diagonal
	// holds the invocation overheads O_ii.
	Overhead *matrix.Dense
	// Beta is the optional P×P matrix of inverse bandwidths (s/byte); it may
	// be nil when no pattern carries payload.
	Beta *matrix.Dense
}

// Validate checks that the matrices exist, are square and mutually sized.
func (pr Params) Validate() error {
	if pr.Latency == nil || pr.Overhead == nil {
		return errors.New("barrier: params need latency and overhead matrices")
	}
	p := pr.Latency.Rows()
	if pr.Latency.Cols() != p || pr.Overhead.Rows() != p || pr.Overhead.Cols() != p {
		return errors.New("barrier: parameter matrices must be square and equally sized")
	}
	if pr.Beta != nil && (pr.Beta.Rows() != p || pr.Beta.Cols() != p) {
		return errors.New("barrier: beta matrix size mismatch")
	}
	return nil
}

// Procs returns the process count the parameters describe.
func (pr Params) Procs() int { return pr.Latency.Rows() }

// CostOptions tune the cost model; the defaults reproduce the thesis' model,
// and the switches exist for the ablation benchmarks in bench_test.go.
type CostOptions struct {
	// AckFactor multiplies the summed latency term; the thesis uses 2 to
	// account for the acknowledgement of each signal on symmetric links
	// (Section 5.6.5).
	AckFactor float64
	// PostedReceive enables the refinement that replaces O_ij with O_jj when
	// the destination is known to be waiting for the signal.
	PostedReceive bool
	// MinInvocation enables the refinement that the per-stage overhead term
	// never drops below the invocation cost O_ii.
	MinInvocation bool
}

// DefaultCostOptions returns the thesis' model: acknowledgement factor 2 with
// both refinements enabled.
func DefaultCostOptions() CostOptions {
	return CostOptions{AckFactor: 2, PostedReceive: true, MinInvocation: true}
}

// CostOptionsFor returns the cost options matching a collective's data flow.
// The thesis' factor-2 acknowledgement term models senders that cannot
// proceed before their signal is acknowledged, which holds whenever a sender
// signals again in a later stage: every flooding schedule, and also the
// binomial broadcast, whose interior nodes (the root above all) keep sending
// in consecutive stages. Only in the reduction tree is every sender finished
// after its single signal, so only there does the acknowledgement leave the
// critical path and the factor drop to 1.
func CostOptionsFor(sem Semantics) CostOptions {
	opts := DefaultCostOptions()
	if sem == SemReduce {
		opts.AckFactor = 1
	}
	return opts
}

// Prediction is the result of evaluating the cost model on a pattern.
type Prediction struct {
	// Total is the predicted worst-case completion time of the barrier: the
	// longest path through the layered dependency graph.
	Total float64
	// PerProcess holds the predicted completion time of each process after
	// the final stage.
	PerProcess []float64
	// StageCosts[s][i] is the cost process i adds to any path passing
	// through it in stage s (Eq. 5.4 with the refinements applied).
	StageCosts [][]float64
}

// Predict evaluates the barrier cost model on any schedule — a Pattern and
// its streamed twin run through the same statements: per-stage,
// per-process costs from Eq. 5.4,
//
//	cost(s, i) = AckFactor · Σ_j (L_ij + size_ij·β_ij) · S_s(i,j) + max_j O'_ij·S_s(i,j)
//
// combined by a critical-path search over the layered dependency graph (the
// recursive search of Fig. 6.2, implemented as a longest-path dynamic program
// over the stages). size_ij is the schedule's own per-edge size, the one an
// execution sends. O'_ij is O_jj instead of O_ij when j is known to have
// posted its receive — its most recent send was a signal to i and it has been
// idle for at least one full stage since (Section 5.6.5) — and the max term
// starts at the invocation overhead O_ii. Stages are read edge by edge through
// a sched.StageView, so the evaluation is O(signals) per stage and holds O(P)
// state beside the parameter matrices.
func Predict(s sched.Schedule, params Params, opts CostOptions) (*Prediction, error) {
	if err := checkSchedule(s); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	p, nStages := s.NumProcs(), s.NumStages()
	if params.Procs() != p {
		return nil, fmt.Errorf("barrier: params describe %d processes, pattern has %d", params.Procs(), p)
	}
	if opts.AckFactor <= 0 {
		opts.AckFactor = 1
	}

	// Longest path through the layered dependency graph. A path visits one
	// process per stage; an edge i→j in stage s makes j's stage s+1 depend
	// on i's completion of stage s (the thesis' path sum Σ_k cost(k, p_k)).
	// ready[j] is the longest path into j's next stage, completion[j] the one
	// through it. idleSince and lastDests carry the posted-receive question
	// forward: the stage after each rank's last send (0: it never sent), and
	// whom that send went to.
	ready, completion := make([]float64, p), make([]float64, p)
	idleSince, lastDests := make([]int, p), make([][]int, p)
	stageCosts := make([][]float64, nStages)
	v := sched.ViewOf(s)
	for sg := 0; ; sg++ {
		v.Load(sg)
		costs := make([]float64, p)
		for i := range costs {
			sum, maxOverhead := 0.0, 0.0
			if opts.MinInvocation {
				maxOverhead = params.Overhead.At(i, i)
			}
			for k, j := range v.Outs(i) {
				term := params.Latency.At(i, j)
				if size := v.OutSize(i, k); size > 0 && params.Beta != nil {
					term += float64(size) * params.Beta.At(i, j)
				}
				sum += term

				o := params.Overhead.At(i, j)
				if opts.PostedReceive && 0 < idleSince[j] && idleSince[j] < sg && slices.Contains(lastDests[j], i) {
					o = params.Overhead.At(j, j)
				}
				if o > maxOverhead {
					maxOverhead = o
				}
			}
			costs[i] = opts.AckFactor*sum + maxOverhead
			completion[i] = ready[i] + costs[i]
		}
		stageCosts[sg] = costs
		if sg == nStages-1 {
			break
		}
		for j := range ready {
			if outs := v.Outs(j); len(outs) > 0 {
				idleSince[j], lastDests[j] = sg+1, append(lastDests[j][:0], outs...)
			}
			ready[j] = completion[j]
			for _, i := range v.Ins(j) {
				ready[j] = max(ready[j], completion[i])
			}
		}
	}
	// The receivers of the final stage inherit the longest path into them,
	// rank after rank in place; this does not change the maximum but gives
	// meaningful per-process values for hierarchical (tree-like) patterns.
	for j := range completion {
		for _, i := range v.Ins(j) {
			completion[j] = max(completion[j], completion[i])
		}
	}

	pred := &Prediction{PerProcess: completion, StageCosts: stageCosts}
	for _, t := range completion {
		pred.Total = max(pred.Total, t)
	}
	return pred, nil
}

// PredictAlgorithms is a convenience that evaluates the cost model for the
// three reference algorithms at the given process count and returns the
// predictions keyed by pattern name.
func PredictAlgorithms(p int, params Params, opts CostOptions) (map[string]*Prediction, error) {
	linear, err := Linear(p, 0)
	if err != nil {
		return nil, err
	}
	diss, err := Dissemination(p)
	if err != nil {
		return nil, err
	}
	tree, err := Tree(p)
	if err != nil {
		return nil, err
	}
	out := map[string]*Prediction{}
	for _, pat := range []*Pattern{linear, diss, tree} {
		pred, err := Predict(pat, params, opts)
		if err != nil {
			return nil, err
		}
		out[pat.Name] = pred
	}
	return out, nil
}
