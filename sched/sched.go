// Package sched is the public surface of the discrete-event evaluator: the
// schedule and op-stream entry points that compute virtual times directly from
// the LogGP recurrence, with no goroutine per rank, no mailboxes and no channel
// wake-ups, bit-identical to the concurrent engine. Above a threshold width an
// unrecorded run's stage walk is split across up to GOMAXPROCS workers while
// the caller waits; recorded runs are walked on the caller alone.
//
// Most programs never call this package: with the default engine, runs
// started through hbsp.Session (or the bsp/mpi/collective layers) already
// route every schedule-expressible collective through the evaluator at an
// all-ranks rendezvous. Call it directly to evaluate a whole workload without
// a goroutine per rank — collective sweeps at rank counts the concurrent engine
// cannot reach (the benchmark's scale_direct workload runs this way, per-rank
// at P=2048 and collapsed at P=2^20), or a sim.Program built by hand.
//
// A schedule's type is the only statement of its shape. The collective
// generators build circulant schedules (dissemination, the count exchange,
// total exchange, the ring allgather), which collapse to one equivalence
// class on a machine with uniform pairs at any P. A StaticStages literal is
// checked against the Stage contract where it enters RunSchedule or a
// SweepEvaluator, and its classes are found by structural refinement, up to
// 4,096 ranks; above that it runs per rank, with the same bits.
package sched

import (
	"context"

	"hbsp/internal/sched"
	"hbsp/sim"
)

// Stage is the sparse adjacency of one schedule stage.
type Stage = sched.Stage

// Schedule is the stage graph the evaluator executes — the one schedule type
// of the module: a *collective.Pattern is one (a named wrapper around
// another, whose shape the evaluator reads through it), StaticStages is
// one, and mpi.Schedule is this type. Implementations may generate stages
// on the fly (see Stage for the ordering contract).
type Schedule = sched.Schedule

// StaticStages wraps a materialized stage slice as a Schedule: an edge-list
// literal, checked by its Validate method, and by RunSchedule and
// SweepEvaluator.RunPoint before they walk it.
type StaticStages = sched.StaticStages

// RunProgram executes the program on the engine the options select: the
// direct discrete-event evaluator by default, the concurrent engine under
// sim.EngineConcurrent. Both produce bit-identical virtual times, traffic
// counters and recorded traces.
func RunProgram(ctx context.Context, m sim.Machine, pr *sim.Program, o sim.Options) (*sim.Result, error) {
	return sched.RunProgram(ctx, m, pr, o)
}

// RunSchedule evaluates execs consecutive executions of the schedule without
// a goroutine per rank — the direct counterpart of executing a verified pattern
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
// hands it; from a machine family's second point on, circulant edges are
// priced from kept pair terms under the point's own link columns, every
// other pair live by the machine, so a point is bit-identical to an
// independent RunSchedule call with the same options. RunPoint hands a point
// its own recorder and deadline. Not safe for concurrent use — parallel
// sweeps give each worker its own evaluator.
type SweepEvaluator = sched.SweepEvaluator

// SweepOptions configures a SweepEvaluator: everything it fixes for the
// points it evaluates — acks, collapse mode, fault plan, and the recorder
// and per-point deadline Run uses.
type SweepOptions = sched.SweepOptions

// SweepStats reports what a SweepEvaluator reused across its points.
type SweepStats = sched.SweepStats

// NewSweepEvaluator returns a sweep evaluator over the machine. Release it
// when the sweep is done.
func NewSweepEvaluator(m sim.Machine, opt SweepOptions) (*SweepEvaluator, error) {
	return sched.NewSweepEvaluator(m, opt)
}
