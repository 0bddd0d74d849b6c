// Package mpi layers a small, MPI-flavoured message-passing interface over
// the virtual-time simulator. It provides the subset the thesis' software
// stack relies on: non-blocking point-to-point communication, persistent
// requests with MPI_Startall/MPI_Waitall semantics (the general barrier
// simulator of Fig. 5.5 is written directly against these), and a few
// collectives (barrier, allreduce, allgather) built from point-to-point
// messages.
package mpi

import (
	"context"
	"errors"
	"fmt"
	"math"

	"hbsp/internal/simnet"
)

// Comm is the communicator handle each simulated rank receives. It embeds the
// simulated process and adds MPI-style helpers.
type Comm struct {
	proc *simnet.Proc
	// observer, when non-nil, is notified after every completed Barrier —
	// the MPI analogue of a superstep boundary. barrierStep counts them.
	observer    BarrierObserver
	barrierStep int
}

// BarrierObserver is called by every rank after each completed Barrier with
// the barrier's index (counting from 0) and the rank's virtual time.
// Observers are invoked from the per-rank simulation goroutines and must be
// safe for concurrent use. hbsp.Session installs one so WithTrace callbacks
// see MPI "supersteps" just like BSP ones.
type BarrierObserver func(rank, step int, vtime float64)

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
	return RunObserved(ctx, m, body, o, nil)
}

// RunObserved is RunContext with a barrier observer: obs (when non-nil) is
// called on every rank after each completed Barrier.
func RunObserved(ctx context.Context, m simnet.Machine, body func(c *Comm) error, o simnet.Options, obs BarrierObserver) (*simnet.Result, error) {
	return simnet.RunContext(ctx, m, func(p *simnet.Proc) error {
		return body(&Comm{proc: p, observer: obs})
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

// reqKind discriminates persistent request types.
type reqKind int

const (
	sendKind reqKind = iota
	recvKind
)

// PersistentRequest is the analogue of an MPI persistent communication
// request created with MPI_Send_init / MPI_Recv_init: a reusable description
// of one transfer that Startall activates.
type PersistentRequest struct {
	kind    reqKind
	peer    int
	tag     int
	size    int
	payload any

	active *simnet.Request
}

// SendInit creates a persistent send request of size bytes to rank dst.
func (c *Comm) SendInit(dst, tag, size int, payload any) *PersistentRequest {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("mpi: SendInit to invalid rank %d", dst))
	}
	return &PersistentRequest{kind: sendKind, peer: dst, tag: tag, size: size, payload: payload}
}

// RecvInit creates a persistent receive request from rank src.
func (c *Comm) RecvInit(src, tag int) *PersistentRequest {
	if src < 0 || src >= c.Size() {
		panic(fmt.Sprintf("mpi: RecvInit from invalid rank %d", src))
	}
	return &PersistentRequest{kind: recvKind, peer: src, tag: tag}
}

// Startall activates all persistent requests, mirroring MPI_Startall: the
// receives are posted first so matching sends find them pre-posted, then the
// sends are injected back to back.
func (c *Comm) Startall(reqs []*PersistentRequest) {
	for _, r := range reqs {
		if r.kind == recvKind {
			r.active = c.proc.Irecv(r.peer, r.tag)
		}
	}
	for _, r := range reqs {
		if r.kind == sendKind {
			r.active = c.proc.Isend(r.peer, r.tag, r.size, r.payload)
		}
	}
}

// WaitAllPersistent waits for every active persistent request and deactivates
// it, mirroring MPI_Waitall. It returns the payloads received (nil entries for
// sends).
func (c *Comm) WaitAllPersistent(reqs []*PersistentRequest) []any {
	out := make([]any, len(reqs))
	for i, r := range reqs {
		if r.active == nil {
			continue
		}
		out[i] = c.proc.Wait(r.active)
		r.active = nil
	}
	return out
}

// Tags used by the built-in collectives; user code should avoid the highest
// tag values.
const (
	tagBarrier   = 1 << 28
	tagAllreduce = 1<<28 + 1
	tagAllgather = 1<<28 + 2
	tagBcast     = 1<<28 + 3
)

// Barrier synchronizes all ranks with a dissemination pattern. A completed
// barrier is the MPI analogue of a superstep boundary: traced runs record a
// superstep mark, and a BarrierObserver (if installed) is notified.
func (c *Comm) Barrier() {
	c.dissemination(tagBarrier, nil, nil)
	c.proc.TraceSuperstep(c.barrierStep)
	if c.observer != nil {
		c.observer(c.Rank(), c.barrierStep, c.proc.Now())
	}
	c.barrierStep++
}

// dissemination runs the log2(P) dissemination exchange. If payload/combine
// are non-nil, each round exchanges the running value and combines it, which
// is how Allreduce is built.
func (c *Comm) dissemination(tag int, value any, combine func(a, b any) any) any {
	p := c.Size()
	rank := c.Rank()
	acc := value
	round := 0
	for dist := 1; dist < p; dist *= 2 {
		dst := (rank + dist) % p
		src := (rank - dist + p) % p
		size := 0
		if acc != nil {
			size = 8
		}
		rreq := c.proc.Irecv(src, tag+round<<8)
		sreq := c.proc.Isend(dst, tag+round<<8, size, acc)
		got := c.proc.Wait(rreq)
		c.proc.Wait(sreq)
		if combine != nil {
			acc = combine(acc, got)
		}
		round++
	}
	return acc
}

// Op is a reduction operator for Allreduce.
type Op func(a, b float64) float64

// Standard reduction operators.
var (
	OpSum Op = func(a, b float64) float64 { return a + b }
	OpMax Op = func(a, b float64) float64 { return math.Max(a, b) }
	OpMin Op = func(a, b float64) float64 { return math.Min(a, b) }
)

// Allreduce combines one float64 per rank with the given operator and returns
// the result on every rank. It gathers all contributions with a ring
// allgather and reduces locally, which is correct for any operator and any
// process count (a recursive-doubling exchange would double-count
// non-idempotent operators when P is not a power of two).
func (c *Comm) Allreduce(value float64, op Op) float64 {
	all := c.allgatherTagged(value, tagAllreduce)
	acc, ok := all[0].(float64)
	if !ok {
		acc = 0
	}
	for _, v := range all[1:] {
		fv, _ := v.(float64)
		acc = op(acc, fv)
	}
	return acc
}

// Allgather collects one value from every rank and returns the slice indexed
// by rank, identical on all ranks. It is implemented as a ring exchange so
// every rank forwards what it has learned so far.
func (c *Comm) Allgather(value any) []any {
	return c.allgatherTagged(value, tagAllgather)
}

func (c *Comm) allgatherTagged(value any, tag int) []any {
	p := c.Size()
	out := make([]any, p)
	out[c.Rank()] = value
	next := (c.Rank() + 1) % p
	prev := (c.Rank() - 1 + p) % p
	// Ring: in step s, send the value originally owned by (rank-s) and
	// receive the one owned by (rank-s-1).
	for s := 0; s < p-1; s++ {
		sendIdx := (c.Rank() - s + p) % p
		recvIdx := (c.Rank() - s - 1 + p) % p
		rreq := c.proc.Irecv(prev, tag+s<<8)
		sreq := c.proc.Isend(next, tag+s<<8, 8, out[sendIdx])
		out[recvIdx] = c.proc.Wait(rreq)
		c.proc.Wait(sreq)
	}
	return out
}

// Bcast distributes the root's value to every rank with a binomial tree and
// returns it.
func (c *Comm) Bcast(value any, root int) any {
	p := c.Size()
	rank := c.Rank()
	// Relative rank so any root works.
	rel := (rank - root + p) % p
	acc := value
	if rel != 0 {
		// Find the sender: clear the highest set bit of rel.
		mask := 1
		for mask*2 <= rel {
			mask *= 2
		}
		src := ((rel - mask) + root) % p
		acc = c.proc.Recv(src, tagBcast)
	}
	// Forward to children.
	mask := 1
	for mask <= rel {
		mask *= 2
	}
	for ; mask < p; mask *= 2 {
		dstRel := rel + mask
		if dstRel < p {
			dst := (dstRel + root) % p
			c.proc.Send(dst, tagBcast, 8, acc)
		}
	}
	return acc
}

// ErrInvalidRoot is returned by collective helpers validating a root rank.
var ErrInvalidRoot = errors.New("mpi: invalid root rank")
