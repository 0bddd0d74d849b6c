// Package sim is the public surface of the deterministic virtual-time
// message-passing simulator: the Machine parameter interface, the per-rank
// process handle with its non-blocking point-to-point operations, and the
// context-aware entry point. It re-exports the internal/simnet engine
// unchanged — virtual times produced through this package are bit-identical
// to the internal engine's.
//
// Most programs do not call Run here directly; they construct an
// hbsp.Session (the root package), which layers functional options, machine
// validation and typed errors on top.
package sim

import (
	"context"

	"hbsp/internal/simnet"
)

// Machine supplies the pairwise platform parameters the simulator needs; it
// is implemented by cluster.Machine.
type Machine = simnet.Machine

// PairPricer is the optional Machine capability both engines price every
// message through: one Pair call per ordered pair instead of one accessor
// call per parameter. cluster.Machine implements it; machines that do not
// are adapted from their accessors.
type PairPricer = simnet.PairPricer

// Options configure a simulation run.
type Options = simnet.Options

// Result summarizes a simulation run.
type Result = simnet.Result

// Proc is the handle a simulated rank uses to compute, communicate and read
// its clock.
type Proc = simnet.Proc

// Request represents an outstanding non-blocking operation; it is recycled
// by Wait and must not be used afterwards.
type Request = simnet.Request

// Engine selects how schedule-expressible parts of a run are executed; see
// EngineAuto and EngineConcurrent.
type Engine = simnet.Engine

const (
	// EngineAuto (the default) routes schedule-expressible collectives
	// through the goroutine-free discrete-event evaluator; virtual times are
	// bit-identical to EngineConcurrent.
	EngineAuto = simnet.EngineAuto
	// EngineConcurrent forces every message through goroutines and
	// mailboxes.
	EngineConcurrent = simnet.EngineConcurrent
)

// CollapseMode selects whether the direct evaluator may collapse
// rank-equivalence classes; see CollapseAuto and CollapseOff.
type CollapseMode = simnet.CollapseMode

const (
	// CollapseAuto (the default) evaluates one representative rank per
	// equivalence class whenever the machine is homogeneous, the schedule is
	// symmetric and no recorder is attached — bit-identical to per-rank
	// evaluation, falling back where the collapse does not apply (the
	// decision and fallback reason are reported in Result.Collapse).
	CollapseAuto = simnet.CollapseAuto
	// CollapseOff forces per-rank evaluation everywhere.
	CollapseOff = simnet.CollapseOff
)

// Collapse diagnoses the symmetry-collapse decision of a run's direct
// evaluations: whether collapsed evaluation was applied, over how many
// classes, and — on fallback — why (one of the CollapseReason constants).
// When several conditions rule collapse out at once, Reason names the first
// of: the run's switch ("off"), the machine ("hetero", "noise"), the schedule
// or the fault plan ("asymmetric", "fault"), an attached recorder ("trace"),
// the ranks' entry states at a rendezvous ("asymmetric") — on every path.
type Collapse = simnet.Collapse

// The fallback reasons Result.Collapse.Reason reports.
const (
	// CollapseReasonOff: the run opted out via CollapseOff.
	CollapseReasonOff = simnet.CollapseReasonOff
	// CollapseReasonHetero: per-pair heterogeneity (HeteroSpread > 0), or a
	// machine that does not expose homogeneity at all.
	CollapseReasonHetero = simnet.CollapseReasonHetero
	// CollapseReasonNoise: a live noise model (NoiseRel > 0).
	CollapseReasonNoise = simnet.CollapseReasonNoise
	// CollapseReasonTrace: a trace recorder is attached.
	CollapseReasonTrace = simnet.CollapseReasonTrace
	// CollapseReasonAsymmetric: the schedule's stage graph (or the ranks'
	// entry states at a rendezvous) is not rank-symmetric.
	CollapseReasonAsymmetric = simnet.CollapseReasonAsymmetric
	// CollapseReasonFault: the fault plan degrades ranks asymmetrically and
	// refinement could not isolate the degraded ranks into their own classes.
	CollapseReasonFault = simnet.CollapseReasonFault
)

// Program is a per-rank straight-line op-stream: the schedule-expressible
// timing skeleton of a workload, executable by both engines with
// bit-identical virtual times. Build one with NewProgram.
type Program = simnet.Program

// RankProgram appends instructions to one rank's op-stream.
type RankProgram = simnet.RankProgram

// Req names a request slot of a Program.
type Req = simnet.Req

// NewProgram returns an empty program for the given number of ranks.
func NewProgram(procs int) *Program { return simnet.NewProgram(procs) }

// ErrDeadline is returned when the simulated program does not finish within
// the wall-clock deadline (usually a deadlocked communication pattern).
var ErrDeadline = simnet.ErrDeadline

// ErrAborted is wrapped by the error Run returns when the context is
// cancelled before the simulated program finishes.
var ErrAborted = simnet.ErrAborted

// DefaultOptions returns the options used when none are supplied: sends
// acknowledged, two-minute wall-clock deadline.
func DefaultOptions() Options { return simnet.DefaultOptions() }

// Run executes body once per rank of the machine, each in its own goroutine,
// and returns the per-rank virtual finishing times. Cancelling the context
// aborts the run (every rank blocked in a receive unwinds) with an error
// wrapping ErrAborted; exceeding the wall-clock deadline returns
// ErrDeadline.
func Run(ctx context.Context, m Machine, body func(p *Proc) error, o Options) (*Result, error) {
	return simnet.RunContext(ctx, m, body, o)
}

// RunProgram executes a Program op-stream on the concurrent engine: one
// goroutine per rank replays its instructions through the mailbox machinery.
// The goroutine-free evaluation of the same program is sched.RunProgram;
// both produce bit-identical virtual times (hbsp.Session.RunProgram routes
// between them by Options.Engine).
func RunProgram(ctx context.Context, m Machine, pr *Program, o Options) (*Result, error) {
	return simnet.RunProgram(ctx, m, pr, o)
}

// MaxTime returns the largest of the supplied times.
func MaxTime(times []float64) float64 { return simnet.MaxTime(times) }

// SortedCopy returns a sorted copy of times.
func SortedCopy(times []float64) []float64 { return simnet.SortedCopy(times) }
