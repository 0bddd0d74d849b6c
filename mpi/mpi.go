// Package mpi is the public surface of the MPI-flavoured message-passing
// layer: blocking and non-blocking point-to-point communication and the
// schedule-driven collectives (BcastSchedule, AllreduceSchedule, ...) that
// execute verified collective schedules (sched.Schedule) with user data. The
// built-in collectives (Barrier, Bcast, Allreduce, Allgather) are those
// schedule collectives over the dissemination, binomial and ring generator
// schedules. A schedule collective's messages are signals billed at the
// schedule's sizes; its data is one board per call that each rank writes its
// contribution into, read through the schedule's reach set
// (Comm.FloodSchedule returns that view, a Flood).
//
// Programs are normally started through an hbsp.Session (hbsp.New +
// Session.RunMPI), which adds functional options, machine validation and
// context cancellation; RunContext is the lower-level entry point it uses.
// A recorded run (hbsp.WithRecorder) marks every Barrier on every rank as a
// trace.KindSuperstep event at the rank's virtual time, as a BSP Sync is.
package mpi

import (
	"context"

	impi "hbsp/internal/mpi"

	"hbsp/sim"
)

// Comm is the communicator handle each simulated rank receives.
type Comm = impi.Comm

// Op is a reduction operator for Allreduce.
type Op = impi.Op

// Schedule is what the Comm schedule collectives execute: sched.Schedule, the
// one schedule type — a verified *collective.Pattern or a streamed
// collective.Stream* schedule alike.
type Schedule = impi.Schedule

// Flood is what Comm.FloodSchedule delivered to one rank: a read-only view
// (Has, Get, Len) of the contributions whose flood reached it.
type Flood = impi.Flood

// Standard reduction operators.
var (
	OpSum = impi.OpSum
	OpMax = impi.OpMax
	OpMin = impi.OpMin
)

// ErrInvalidRoot is returned by collectives validating a root rank.
var ErrInvalidRoot = impi.ErrInvalidRoot

// RunContext executes body once per rank of the machine with explicit
// simulator options and a cancellable context.
func RunContext(ctx context.Context, m sim.Machine, body func(c *Comm) error, o sim.Options) (*sim.Result, error) {
	return impi.RunContext(ctx, m, body, o)
}
