// Package mpi layers a small, MPI-flavoured message-passing interface over
// the virtual-time simulator. It provides the subset the thesis' software
// stack relies on: blocking and non-blocking point-to-point communication,
// and collectives that execute a schedule of communication stages
// (schedule.go). The built-in collectives (Barrier, Allreduce, Allgather,
// Bcast) are those schedule collectives over the dissemination, ring and
// binomial generator schedules. ExecSchedule is the one entry through which
// any schedule executed on rank goroutines is timed — these collectives,
// barrier.Execute and the BSP superstep's count exchange: at the run's gate on
// the default engine, as a per-rank walk on the concurrent one.
package mpi

import (
	"context"
	"errors"
	"fmt"
	"math"

	"hbsp/internal/sched"
	"hbsp/internal/simnet"
)

// Comm is the communicator handle each simulated rank receives. It embeds the
// simulated process and adds MPI-style helpers.
type Comm struct {
	proc *simnet.Proc
	// barrierStep counts completed Barriers, the MPI analogue of superstep
	// boundaries; each one's trace mark carries its index.
	barrierStep int
}

// Run executes body once per rank of the machine under the default simulator
// options.
func Run(m simnet.Machine, body func(c *Comm) error, opts ...simnet.Options) (*simnet.Result, error) {
	return simnet.Run(m, func(p *simnet.Proc) error {
		return body(&Comm{proc: p})
	}, opts...)
}

// RunContext is Run with explicit simulator options and a cancellable
// context: cancelling the context aborts the run through the simulator's
// teardown path with an error wrapping simnet.ErrAborted.
func RunContext(ctx context.Context, m simnet.Machine, body func(c *Comm) error, o simnet.Options) (*simnet.Result, error) {
	return simnet.RunContext(ctx, m, func(p *simnet.Proc) error {
		return body(&Comm{proc: p})
	}, o)
}

// Proc exposes the underlying simulated process for layers (such as the BSP
// run-time) that need fire-and-forget sends or exact clock control.
func (c *Comm) Proc() *simnet.Proc { return c.proc }

// CommOn wraps an existing simulated process in a communicator. Layered
// run-times use it to reach the schedule-driven collectives from their own
// process handles (the BSP collectives are built this way).
func CommOn(p *simnet.Proc) *Comm { return &Comm{proc: p} }

// Rank returns the calling process' rank.
func (c *Comm) Rank() int { return c.proc.Rank() }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.proc.Size() }

// Wtime returns the process' current virtual time in seconds, mirroring
// MPI_Wtime.
func (c *Comm) Wtime() float64 { return c.proc.Now() }

// Compute advances the local clock by the given amount of work (seconds).
func (c *Comm) Compute(seconds float64) { c.proc.Compute(seconds) }

// Send performs a blocking (acknowledged) send.
func (c *Comm) Send(dst, tag, size int, payload any) { c.proc.Send(dst, tag, size, payload) }

// Recv performs a blocking receive from a specific source and returns the
// payload.
func (c *Comm) Recv(src, tag int) any { return c.proc.Recv(src, tag) }

// Isend posts a non-blocking send.
func (c *Comm) Isend(dst, tag, size int, payload any) *simnet.Request {
	return c.proc.Isend(dst, tag, size, payload)
}

// Irecv posts a non-blocking receive.
func (c *Comm) Irecv(src, tag int) *simnet.Request {
	return c.proc.Irecv(src, tag)
}

// Wait blocks until the request completes; for receives it returns the
// payload.
func (c *Comm) Wait(r *simnet.Request) any { return c.proc.Wait(r) }

// WaitAll waits for all requests in order.
func (c *Comm) WaitAll(reqs []*simnet.Request) []any { return c.proc.WaitAll(reqs) }

// Barrier synchronizes all ranks with the dissemination barrier. A completed
// barrier is the MPI analogue of a superstep boundary: a recorded run marks
// the n-th (from 0) on every rank as superstep n, as a BSP Sync is marked.
func (c *Comm) Barrier() {
	check(c.BarrierSchedule(c.generated(dissemination, 0)))
	c.proc.TraceSuperstep(c.barrierStep)
	c.barrierStep++
}

// Op is a reduction operator for Allreduce.
type Op func(a, b float64) float64

// Standard reduction operators.
var (
	OpSum Op = func(a, b float64) float64 { return a + b }
	OpMax Op = func(a, b float64) float64 { return math.Max(a, b) }
	OpMin Op = func(a, b float64) float64 { return math.Min(a, b) }
)

// Allreduce combines one float64 per rank with the given operator over the
// ring allgather and returns the result on every rank. Contributions are
// combined in rank order, so the result is identical on every rank and
// correct for any operator and any process count.
func (c *Comm) Allreduce(value float64, op Op) float64 {
	return must(c.AllreduceSchedule(c.generated(ring, 0), value, op))
}

// Allgather collects one value from every rank over the ring allgather and
// returns the slice indexed by rank, identical on all ranks.
func (c *Comm) Allgather(value any) []any {
	return must(c.AllgatherSchedule(c.generated(ring, 0), value))
}

// Bcast distributes the root's value to every rank over the binomial tree
// and returns it. A root outside the communicator is refused before anything
// is sent: the rank panics with an error wrapping ErrInvalidRoot.
func (c *Comm) Bcast(value any, root int) any {
	check(c.checkRoot(root))
	return must(c.BcastSchedule(c.generated(binomial, root), root, value))
}

// The generator shapes of the built-in collectives, whose payload is one
// 8-byte value per edge (none for the barrier).
const (
	dissemination = iota
	ring
	binomial
)

// generatedKey names a built-in collective's schedule in the run's memo.
type generatedKey struct{ shape, root int }

// generated returns the run's one value of the shape's schedule (see
// simnet.Proc.Memo), built by the first rank to ask.
func (c *Comm) generated(shape, root int) Schedule {
	s, err := c.proc.Memo(generatedKey{shape, root}, func() (any, error) {
		p := c.Size()
		switch shape {
		case dissemination:
			return sched.Dissemination(p, nil)
		case ring:
			return sched.Ring(p, 8)
		default:
			return sched.NewBinomial(p, root, 8, false)
		}
	})
	return must(s, err).(Schedule)
}

// check panics with a built-in collective's error. The built-ins have no
// error to return, so one that fails (a violated collective contract, an
// invalid root) panics, as barrier.Execute does; the run reports the panic as
// the rank's error, wrapping this one.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// must is check for a built-in collective with a result.
func must[T any](v T, err error) T {
	check(err)
	return v
}

// checkRoot refuses a root rank outside the communicator.
func (c *Comm) checkRoot(root int) error {
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("%w: %d", ErrInvalidRoot, root)
	}
	return nil
}

// ErrInvalidRoot is returned by collective helpers validating a root rank.
var ErrInvalidRoot = errors.New("mpi: invalid root rank")
