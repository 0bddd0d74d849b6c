// Package collective is the public surface of the collective-schedule
// engine: schedules as named, semantics-tagged wrappers around one streamed
// schedule each (Pattern), generators for barriers and payload-carrying
// collectives, the knowledge-recursion verifier, the matrix cost model with
// its critical-path search (Predict), the pattern simulator
// (Measure/Execute) and the model-driven adaptation that selects
// hierarchical hybrid schedules from benchmarked parameter matrices
// (Greedy/GreedySync).
//
// There is one schedule type: a *Pattern is a sched.Schedule, and
// mpi.Schedule is the same type. So any pattern is directly executable with
// user data — mpi.Comm's schedule collectives (BcastSchedule,
// AllreduceSchedule, ...) run them, sched.RunSchedule evaluates them, and
// the bsp.Ctx collectives execute the same generators behind the scenes.
// Each collective has one generator, which wraps the streamed schedule of its
// shape: a circulant (dissemination, allreduce, allgather, ring allgather,
// total exchange) is one offset and size per stage, a binomial tree
// (broadcast, reduce) builds a stage's edge lists on request. Verify,
// Predict and the evaluator see through the wrapper, so a P=16384 allreduce
// builds and verifies in microseconds. The linear, tree, k-ary tree, ring and
// all-to-all barriers wrap the edge lists they emit.
package collective

import (
	"hbsp/internal/adapt"
	"hbsp/internal/barrier"

	"hbsp/mpi"
	"hbsp/sched"
	"hbsp/sim"
)

// Pattern is a named collective schedule: an embedded sched.Schedule (its
// NumProcs, NumStages and StageAt promoted) with a Semantics tag and, for
// rooted collectives, a Root. A *Pattern is a sched.Schedule, and the cost
// model, the simulator and the schedule synchronizer take it and any other
// schedule alike. The thesis' P×P stage matrices are not held anywhere.
type Pattern = barrier.Pattern

// Semantics names the collective postcondition a schedule must establish.
type Semantics = barrier.Semantics

// The collective semantics a schedule can be verified against.
const (
	SemBarrier       = barrier.SemBarrier
	SemBroadcast     = barrier.SemBroadcast
	SemReduce        = barrier.SemReduce
	SemAllReduce     = barrier.SemAllReduce
	SemAllGather     = barrier.SemAllGather
	SemTotalExchange = barrier.SemTotalExchange
)

// Params are the architectural performance matrices the cost model consumes;
// bench.ModelParams benchmarks them from a machine.
type Params = barrier.Params

// CostOptions tune the cost model.
type CostOptions = barrier.CostOptions

// Prediction is the result of evaluating the cost model on a schedule.
type Prediction = barrier.Prediction

// Measurement holds the result of measuring a schedule on a simulated
// machine.
type Measurement = barrier.Measurement

// Errors of the schedule engine.
var (
	ErrInvalidPattern = barrier.ErrInvalidPattern
	ErrNoReps         = barrier.ErrNoReps
)

// Barrier pattern generators.
func Linear(p, root int) (*Pattern, error)  { return barrier.Linear(p, root) }
func Dissemination(p int) (*Pattern, error) { return barrier.Dissemination(p) }
func Tree(p int) (*Pattern, error)          { return barrier.Tree(p) }
func FullyConnected(p int) (*Pattern, error) {
	return barrier.FullyConnected(p)
}
func Ring(p int) (*Pattern, error)        { return barrier.Ring(p) }
func KAryTree(p, k int) (*Pattern, error) { return barrier.KAryTree(p, k) }

// Payload-carrying collective generators, each verified against its own
// semantics by Collectives.
func Broadcast(p, root, msgBytes int) (*Pattern, error) {
	return barrier.Broadcast(p, root, msgBytes)
}
func Reduce(p, root, msgBytes int) (*Pattern, error) {
	return barrier.Reduce(p, root, msgBytes)
}
func AllReduce(p, msgBytes int) (*Pattern, error) { return barrier.AllReduce(p, msgBytes) }
func AllGather(p, blockBytes int) (*Pattern, error) {
	return barrier.AllGather(p, blockBytes)
}
func TotalExchange(p, blockBytes int) (*Pattern, error) {
	return barrier.TotalExchange(p, blockBytes)
}
func AllGatherRing(p, blockBytes int) (*Pattern, error) {
	return barrier.AllGatherRing(p, blockBytes)
}

// StreamTotalExchange is TotalExchange as a sched.Schedule.
//
// Deprecated: call TotalExchange; a *Pattern is a sched.Schedule.
func StreamTotalExchange(p, blockBytes int) (sched.Schedule, error) {
	pat, err := barrier.TotalExchange(p, blockBytes)
	if err != nil {
		return nil, err // not a nil *Pattern inside a non-nil interface
	}
	return pat, nil
}

// Collectives returns one verified schedule per collective at the given
// process count and block size, keyed by name.
func Collectives(p, blockBytes int) (map[string]*Pattern, error) {
	return barrier.Collectives(p, blockBytes)
}

// KnowledgeSized returns the schedule with every out-edge sized by what its
// sender holds entering the stage: headerBytes plus bytesPerOrigin for each
// contribution the knowledge recursion has delivered to it. With a P-entry
// count row per origin (bytesPerOrigin = P·4) it is the BSP count exchange
// over that schedule, which is what a schedule synchronizer executes and
// GreedySync scores.
func KnowledgeSized(s sched.Schedule, headerBytes, bytesPerOrigin int) sched.Schedule {
	return barrier.KnowledgeSized(s, headerBytes, bytesPerOrigin)
}

// DefaultCostOptions returns the thesis' cost model: acknowledgement factor
// 2 with the posted-receive and minimum-invocation refinements enabled.
func DefaultCostOptions() CostOptions { return barrier.DefaultCostOptions() }

// CostOptionsFor returns the cost options matching a collective's data flow.
func CostOptionsFor(sem Semantics) CostOptions { return barrier.CostOptionsFor(sem) }

// Predict evaluates the cost model on any schedule, a Pattern included:
// per-stage, per-process costs combined by a critical-path search.
func Predict(s sched.Schedule, params Params, opts CostOptions) (*Prediction, error) {
	return barrier.Predict(s, params, opts)
}

// Measure executes the schedule reps times on the machine and reports the
// worst-case duration statistics.
func Measure(m sim.Machine, s sched.Schedule, reps int) (*Measurement, error) {
	return barrier.Measure(m, s, reps)
}

// MeasureWith is Measure under explicit simulator options — most usefully
// the engine selection (sim.EngineConcurrent forces the per-message
// concurrent walk; the default routes executions through the direct
// discrete-event evaluator, bit-identically).
func MeasureWith(m sim.Machine, s sched.Schedule, reps int, o sim.Options) (*Measurement, error) {
	return barrier.MeasureWith(m, s, reps, o)
}

// MeasureAlgorithms measures the three reference barriers on the machine.
func MeasureAlgorithms(m sim.Machine, reps int) (map[string]*Measurement, error) {
	return barrier.MeasureAlgorithms(m, reps)
}

// Execute runs one execution of the schedule on the calling rank (signals
// only; use the Comm schedule collectives for data-carrying execution).
func Execute(c *mpi.Comm, s sched.Schedule) { barrier.Execute(c, s) }

// Model-driven adaptation (Case Study I): latency clustering and the greedy
// hybrid-schedule construction.

// Clustering is a latency-homogeneous grouping of processes.
type Clustering = adapt.Clustering

// Candidate is one costed schedule candidate of a greedy construction.
type Candidate = adapt.Candidate

// AdaptResult ranks the candidate schedules of a greedy construction; Best
// is the model-selected winner.
type AdaptResult = adapt.Result

// ErrBadInput is returned by the adaptation pipeline on invalid inputs.
var ErrBadInput = adapt.ErrBadInput

// Greedy runs the model-driven construction of Chapter 7: cluster, build the
// candidate hybrids, cost every candidate, return the ranking.
func Greedy(params Params, opts CostOptions) (*AdaptResult, error) {
	return adapt.Greedy(params, opts)
}

// GreedySync is Greedy with every candidate costed carrying the BSP
// count-exchange payload; its winner is what hbsp.WithAdaptedSynchronizer
// executes at the end of every superstep.
func GreedySync(params Params, opts CostOptions, bytesPerEntry int) (*AdaptResult, error) {
	return adapt.GreedySync(params, opts, bytesPerEntry)
}
