// Package bsp is the public surface of the overlapping BSPlib run-time: the
// per-process Ctx with registration, one-sided communication (Put/Get),
// bulk-synchronous message passing (Send/Move), superstep synchronization
// (Sync) and the schedule-driven user collectives (Broadcast, Reduce,
// AllReduce, AllGather, TotalExchange), plus the pluggable Synchronizer that
// performs the count total exchange ending every superstep.
//
// Programs are normally started through an hbsp.Session (hbsp.New +
// Session.RunBSP), which adds functional options, machine validation and
// context cancellation; RunContext is the lower-level entry point it uses.
// A recorded run (hbsp.WithRecorder) marks every Sync on every process as a
// trace.KindSuperstep event at the process' virtual time.
package bsp

import (
	"context"

	ibsp "hbsp/internal/bsp"

	"hbsp/collective"
	"hbsp/sched"
	"hbsp/sim"
)

// Machine is the platform the BSP run-time executes on: the simulator
// interface plus per-rank kernel timing, satisfied by cluster.Machine.
type Machine = ibsp.Machine

// Program is the SPMD body executed by every process.
type Program = ibsp.Program

// Ctx is the per-process BSPlib context.
type Ctx = ibsp.Ctx

// Synchronizer selects the schedule of the total exchange of per-pair message
// counts that ends a superstep. It is a closed interface: obtain one from
// DefaultSynchronizer, NewScheduleSynchronizer or NewAdaptedSynchronizer.
type Synchronizer = ibsp.Synchronizer

// RunConfig bundles everything a BSP run can be configured with.
type RunConfig = ibsp.RunConfig

// ReduceOp combines two reduction operands; it is always applied in rank
// order.
type ReduceOp = ibsp.ReduceOp

// Standard reduction operators.
var (
	OpSum = ibsp.OpSum
	OpMax = ibsp.OpMax
	OpMin = ibsp.OpMin
)

// ErrNotRegistered is returned when a one-sided operation names an unknown
// registration.
var ErrNotRegistered = ibsp.ErrNotRegistered

// DefaultSynchronizer returns the dissemination synchronizer the run-time
// uses when none is configured.
func DefaultSynchronizer() Synchronizer { return ibsp.DefaultSynchronizer() }

// NewScheduleSynchronizer wraps a collective schedule, materialized or
// streamed, as a count-exchange synchronizer: every edge carries the count
// rows its sender holds (collective.KnowledgeSized). The schedule must pass
// the all-pairs knowledge recursion; rooted broadcast or reduce schedules
// cannot deliver the full count map and are rejected.
func NewScheduleSynchronizer(s sched.Schedule) (Synchronizer, error) {
	return ibsp.NewScheduleSynchronizer(s)
}

// NewAdaptedSynchronizer runs the model-driven greedy construction on the
// supplied parameter matrices, costs every candidate with the count payload
// it would carry, and wraps the winner as a synchronizer. It returns the
// adaptation result so callers can report the ranking.
func NewAdaptedSynchronizer(params collective.Params, opts collective.CostOptions) (Synchronizer, *collective.AdaptResult, error) {
	return ibsp.NewAdaptedSynchronizer(params, opts)
}

// ExchangeSchedule returns the default dissemination count-exchange schedule
// for p ranks — the exact op-stream Sync evaluates per superstep, with every
// payload size resolved up front. Evaluate it with sched.RunSchedule to sweep
// the superstep synchronization cost at rank counts no concurrent run could
// reach.
func ExchangeSchedule(p int) (sched.Schedule, error) { return ibsp.ExchangeSchedule(p) }

// RunContext executes the SPMD program on every rank of the machine under an
// explicit configuration and a cancellable context.
func RunContext(ctx context.Context, m Machine, cfg RunConfig, program Program) (*sim.Result, error) {
	return ibsp.RunContext(ctx, m, cfg, program)
}
