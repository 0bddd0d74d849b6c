// Package sched is the public surface of the goroutine-free discrete-event
// evaluator: the schedule and op-stream entry points that compute virtual
// times directly from the LogGP recurrence, with no goroutines, mailboxes or
// channel wake-ups, bit-identical to the concurrent engine.
//
// Most programs never call this package: with the default engine, runs
// started through hbsp.Session (or the bsp/mpi/collective layers) already
// route every schedule-expressible collective through the evaluator at an
// all-ranks rendezvous. Call it directly to evaluate a whole workload with
// zero goroutines — collective sweeps at rank counts the concurrent engine
// cannot reach (the benchmark's scale_direct workload runs this way, per-rank
// at P=2048 and collapsed at P=2^20), or a sim.Program built by hand.
package sched

import (
	"context"

	"hbsp/internal/sched"
	"hbsp/sim"
)

// Stage is the sparse adjacency of one schedule stage.
type Stage = sched.Stage

// Schedule is the stage graph the evaluator executes — the one schedule type
// of the module: a *collective.Pattern is one, the streamed generators
// (collective.Stream*, Circulant) return others, and mpi.Schedule is this
// type. Implementations may generate stages on the fly (see Stage for the
// ordering contract).
type Schedule = sched.Schedule

// StaticStages wraps a materialized stage slice as a Schedule.
type StaticStages = sched.StaticStages

// Symmetry is the rank-symmetry hint a schedule may declare; see SymNone and
// SymCirculant.
type Symmetry = sched.Symmetry

const (
	// SymNone declares nothing; the evaluator falls back to structural
	// equivalence-class refinement (or per-rank evaluation).
	SymNone = sched.SymNone
	// SymCirculant asserts every stage is a circulant: each rank sends to
	// rank+offset (mod P) with a rank-invariant payload. On machines whose
	// pairs are uniform, all ranks collapse into one equivalence class.
	SymCirculant = sched.SymCirculant
)

// Circulant is a streaming circulant schedule — one offset and payload size
// per stage, generated into O(1) reused buffers. It is the representation
// that takes symmetry-collapsed sweeps to P=1M.
type Circulant = sched.Circulant

// NewCirculant returns the circulant schedule with the given per-stage
// offsets (taken mod p) and payload sizes (nil for signal-only stages).
func NewCirculant(p int, offsets, sizes []int) (*Circulant, error) {
	return sched.NewCirculant(p, offsets, sizes)
}

// Code is a compiled sim.Program, reusable across evaluations.
type Code = sched.Code

// Compile lowers a program into flat per-rank instruction arrays with all
// message matching resolved; evaluate it with Code.Run.
func Compile(pr *sim.Program) (*Code, error) { return sched.Compile(pr) }

// RunProgram executes the program on the engine the options select: the
// direct discrete-event evaluator by default, the concurrent engine under
// sim.EngineConcurrent. Both produce bit-identical virtual times, traffic
// counters and recorded traces.
func RunProgram(ctx context.Context, m sim.Machine, pr *sim.Program, o sim.Options) (*sim.Result, error) {
	return sched.RunProgram(ctx, m, pr, o)
}

// RunSchedule evaluates execs consecutive executions of the schedule with
// zero goroutines — the direct counterpart of executing a verified pattern
// execs times under an MPI run — and returns the per-rank virtual finishing
// times. Cancellation and deadlines behave like the concurrent engine's
// (errors wrap sim.ErrAborted / sim.ErrDeadline).
func RunSchedule(ctx context.Context, m sim.Machine, s Schedule, execs int, o sim.Options) (*sim.Result, error) {
	return sched.RunSchedule(ctx, m, s, execs, o)
}

// SweepEvaluator evaluates a family of schedule points — a parameter sweep
// over bytes, LogGP scalings or run seeds — on one kept evaluator arena, with
// the fault plan compiled once and the symmetry-partition decisions
// memoized. Every point runs through the run frame with the body RunSchedule
// hands it, every pair priced live by the machine, so a point is
// bit-identical to an independent RunSchedule call with the same options. Not safe for concurrent use —
// parallel sweeps give each worker its own evaluator.
type SweepEvaluator = sched.SweepEvaluator

// SweepOptions configures a SweepEvaluator: what it fixes per sweep (acks,
// collapse mode, fault plan) and what SetDeadline / SetRecorder may change
// between points.
type SweepOptions = sched.SweepOptions

// SweepStats reports what a SweepEvaluator reused across its points.
type SweepStats = sched.SweepStats

// NewSweepEvaluator returns a sweep evaluator over the machine. Release it
// when the sweep is done.
func NewSweepEvaluator(m sim.Machine, opt SweepOptions) (*SweepEvaluator, error) {
	return sched.NewSweepEvaluator(m, opt)
}
