// Package collective is the public surface of the collective-schedule
// engine: schedules as named, semantics-tagged stage edge lists (Pattern) and
// in streamed O(stages) form (Stream*), generators for barriers and
// payload-carrying collectives, the knowledge-recursion verifier, the matrix
// cost model with its critical-path search (Predict), the pattern simulator
// (Measure/Execute) — all three over either form — and the model-driven
// adaptation that selects hierarchical hybrid schedules from benchmarked
// parameter matrices (Greedy/GreedySync).
//
// There is one schedule type: a *Pattern is a sched.Schedule, as the streamed
// generators' values are, and mpi.Schedule is the same type. So any of them is
// directly executable with user data — mpi.Comm's schedule collectives
// (BcastSchedule, AllreduceSchedule, ...) run them, sched.RunSchedule
// evaluates them, and the bsp.Ctx collectives execute the streamed ones
// behind the scenes. Each collective has one construction, its Stream*
// generator; the Pattern generator of the same name is that stream
// materialized as edge lists, O(P) per stage. Prefer the streamed form for
// anything large: a total exchange's edge lists are P−1 stages of P edges,
// its circulant stream one offset per stage.
package collective

import (
	"hbsp/internal/adapt"
	"hbsp/internal/barrier"

	"hbsp/matrix"
	"hbsp/mpi"
	"hbsp/sched"
	"hbsp/sim"
)

// Pattern is a named collective schedule: its stages as edge lists (Procs,
// Sym and Stages promoted from sched.StaticStages; Stages[s].Out[i] lists the
// ranks i signals in stage s, OutBytes their payload sizes), a Semantics tag
// and, for rooted collectives, a Root. A *Pattern is a sched.Schedule, and
// the cost model, the simulator and the schedule synchronizer take it and the
// streamed form alike. The thesis' P×P stage matrices are not held anywhere.
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

// StreamTotalExchange returns the linear-shift total-exchange schedule in
// streaming form — the stages TotalExchange materializes, described by one
// offset and size per stage. Evaluate it with sched.RunSchedule; it is the
// representation that makes P=4096 collective sweeps feasible.
func StreamTotalExchange(p, blockBytes int) (sched.Schedule, error) {
	return barrier.StreamTotalExchange(p, blockBytes)
}

// The remaining streaming generators are likewise what their Pattern
// counterparts materialize: O(P) (circulants: O(1)) state per stage. All of
// them declare their rank symmetry, so on homogeneous machines
// sched.RunSchedule evaluates one representative rank per equivalence class —
// the combination that takes dissemination sweeps to P=1M.
func StreamDissemination(p int) (sched.Schedule, error) { return barrier.StreamDissemination(p) }
func StreamAllReduce(p, msgBytes int) (sched.Schedule, error) {
	return barrier.StreamAllReduce(p, msgBytes)
}
func StreamAllGather(p, blockBytes int) (sched.Schedule, error) {
	return barrier.StreamAllGather(p, blockBytes)
}
func StreamAllGatherRing(p, blockBytes int) (sched.Schedule, error) {
	return barrier.StreamAllGatherRing(p, blockBytes)
}
func StreamBroadcast(p, root, msgBytes int) (sched.Schedule, error) {
	return barrier.StreamBroadcast(p, root, msgBytes)
}
func StreamReduce(p, root, msgBytes int) (sched.Schedule, error) {
	return barrier.StreamReduce(p, root, msgBytes)
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

// Predict evaluates the cost model on a schedule, materialized or streamed:
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

// SubPattern selects the intra- or inter-cluster pattern family of a hybrid.
type SubPattern = adapt.SubPattern

// ErrBadInput is returned by the adaptation pipeline on invalid inputs.
var ErrBadInput = adapt.ErrBadInput

// AutoThreshold derives a latency threshold separating intra- from
// inter-cluster pairs.
func AutoThreshold(latency *matrix.Dense) (float64, error) { return adapt.AutoThreshold(latency) }

// ClusterByLatency groups processes whose pairwise latency stays below the
// threshold.
func ClusterByLatency(latency *matrix.Dense, threshold float64) (*Clustering, error) {
	return adapt.ClusterByLatency(latency, threshold)
}

// ClusterAuto clusters with an automatically derived threshold.
func ClusterAuto(latency *matrix.Dense) (*Clustering, error) { return adapt.ClusterAuto(latency) }

// BuildHybrid assembles a hierarchical hybrid barrier from a clustering.
func BuildHybrid(cl *Clustering, intra, inter SubPattern) (*Pattern, error) {
	return adapt.BuildHybrid(cl, intra, inter)
}

// Greedy runs the model-driven construction of Chapter 7: cluster, build the
// candidate hybrids, cost every candidate, return the ranking.
func Greedy(params Params, opts CostOptions) (*AdaptResult, error) {
	return adapt.Greedy(params, opts)
}

// GreedyWithClustering is Greedy with an explicit clustering.
func GreedyWithClustering(params Params, opts CostOptions, cl *Clustering) (*AdaptResult, error) {
	return adapt.GreedyWithClustering(params, opts, cl)
}

// GreedySync is Greedy with every candidate costed carrying the BSP
// count-exchange payload; its winner is what hbsp.WithAdaptedSynchronizer
// executes at the end of every superstep.
func GreedySync(params Params, opts CostOptions, bytesPerEntry int) (*AdaptResult, error) {
	return adapt.GreedySync(params, opts, bytesPerEntry)
}
