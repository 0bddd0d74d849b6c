package sched

import (
	"context"
	"errors"
	"fmt"

	"hbsp/internal/kernels"
	"hbsp/internal/loggp"
	"hbsp/internal/simnet"
)

// Supersteps is a BSP program reduced to what prices it, for RunSupersteps:
// in every superstep each rank issues compute intervals and eager one-sided
// puts — the stencil computes, puts its halos and computes again — and
// synchronizes: the count exchange of the thesis' Section 6.4, one execution
// of a schedule, after which it drains the messages addressed to it. After the
// last exchange each rank issues a closing set of computes with no exchange
// behind it. It is the superstep counterpart of a simnet.Program: every
// operand is fixed up front, so no rank goroutine has to run to find it out.
type Supersteps struct {
	// Steps is the number of supersteps.
	Steps int
	// Step issues to ops what rank does in superstep step, in issue order (a
	// put to itself included, if it does); Step(Steps, rank, ops) issues the
	// closing computes and must put nothing. It must be a pure function.
	Step func(step, rank int, ops Ops)
	// KernelTime prices a Work that names a kernel.
	KernelTime func(rank int, k kernels.Kernel, n int) float64
	// PutBytes is the wire size of a put of n elements; PutTag tags every put.
	PutBytes func(n int) int
	PutTag   int
	// Exchange is the count exchange that ends every superstep, stage s of it
	// tagged ExchangeTag+s. The same value every superstep keys the
	// evaluator's partition cache.
	Exchange    Schedule
	ExchangeTag int
}

// Work is one compute interval: one noisy Compute call of Seconds or, when
// Kernel is set, of the machine's time to apply the kernel to Cells elements —
// and then no call at all, and no noise drawn, for Cells <= 0 (the rule of
// bsp.Ctx.ComputeKernel).
type Work struct {
	Seconds float64
	Kernel  *kernels.Kernel
	Cells   int
}

// Ops receives one rank's part of a superstep from its description, in issue
// order: RunSupersteps prices each operation, bsp.Static.Program replays it on
// a Ctx.
type Ops interface {
	Compute(w Work)
	// Put posts an eager one-sided message of n elements to rank dst.
	Put(dst, n int)
	// Now is the rank's clock after the operations issued so far — Ctx.Time
	// on the replay — for a description that times its own supersteps (the
	// bspbench procedure). What a description issues must not depend on it.
	Now() float64
}

// posted is one eager message between the Post that priced it and the Recv
// that drains it.
type posted struct {
	in       loggp.Edge
	src, dst int32
}

// stepOps is RunSupersteps' Ops: it prices each operation on the issuing
// rank's state as it arrives and keeps the superstep's messages, in sender
// scan order, for the drain, and a mistake in the description in err.
type stepOps struct {
	sp      *Supersteps
	e       *Evaluator
	rank    int
	closing bool
	msgs    []posted
	err     error
}

func (o *stepOps) Compute(w Work) {
	seconds := w.Seconds
	if w.Kernel != nil {
		if w.Cells <= 0 {
			return
		}
		seconds = o.sp.KernelTime(o.rank, *w.Kernel, w.Cells)
	}
	o.e.states[o.rank].Compute(&o.e.env, o.rank, seconds)
}

func (o *stepOps) Now() float64 { return o.e.states[o.rank].Now }

func (o *stepOps) Put(dst, n int) {
	if o.closing || dst < 0 || dst >= len(o.e.states) || n < 0 {
		o.err = fmt.Errorf("sched: rank %d puts %d elements to rank %d (closing %t)", o.rank, n, dst, o.closing)
		return
	}
	o.msgs = append(o.msgs, posted{src: int32(o.rank), dst: int32(dst)})
	o.e.post(o.rank, dst, o.sp.PutTag, o.sp.PutBytes(n), &o.msgs[len(o.msgs)-1].in)
}

// RunSupersteps evaluates the program for the calling goroutine — a body of
// the run frame beside RunSchedule's and Code.Run's, and the counterpart, with
// no goroutine per rank, of replaying the same supersteps on a bsp.Ctx each.
// Virtual times, traffic counters, the collapse diagnostic (the last
// exchange's decision) and recorded events are bit-identical to that run's
// under either engine. Cancellation and o.Deadline are polled once per
// superstep and return the errors the concurrent engine produces; o.Engine is
// ignored, as by RunSchedule.
//
// The walk reproduces bsp.Ctx.Sync's order of operations: every rank's
// computes and posts, the exchange as the run's gate evaluates it
// (ExecScheduleAuto on the ranks' live states), the drain in source order (per
// source in issue order), the superstep mark; after the last superstep, every
// rank's closing computes. Posts and drains of different ranks commute — a
// post touches only the sender, a drain only the receiver and a message
// already priced — so walking them rank by rank is the concurrent order as far
// as any clock can tell. TestRunStaticMatchesReplay and
// TestCrossRouteEquivalence hold the two walks together.
func RunSupersteps(ctx context.Context, m simnet.Machine, sp *Supersteps, o simnet.Options) (*simnet.Result, error) {
	if sp == nil || sp.Step == nil || sp.KernelTime == nil || sp.PutBytes == nil || sp.Exchange == nil {
		return nil, errors.New("sched: superstep program needs step, kernel-time and put-size functions and an exchange schedule")
	}
	return run(ctx, m, sp.Exchange.NumProcs(), &o, nil, sp.walk)
}

// walk is RunSupersteps' body.
func (sp *Supersteps) walk(e *Evaluator, chk *stageChecker) (simnet.Collapse, error) {
	e.perRank()
	p := len(e.states)
	ops := &stepOps{sp: sp, e: e}
	var order []int32 // indices into ops.msgs, grouped by receiver
	for step := 0; step <= sp.Steps; step++ {
		if err := chk.check(); err != nil {
			return simnet.Collapse{}, err
		}
		ops.msgs, ops.closing = ops.msgs[:0], step == sp.Steps
		for r := 0; r < p; r++ {
			ops.rank = r
			sp.Step(step, r, ops)
			if ops.err != nil {
				return simnet.Collapse{}, fmt.Errorf("%w (superstep %d)", ops.err, step)
			}
		}
		if ops.closing {
			break
		}

		e.ExecScheduleAuto(sp.Exchange, sp.ExchangeTag, false)

		// Group the messages by receiver, stably: within a receiver they stay
		// in sender scan order, which is the drain's source order. inNext is
		// the exchange's scratch, free again now.
		msgs := ops.msgs
		starts := e.inNext
		clear(starts)
		for i := range msgs {
			starts[msgs[i].dst]++
		}
		n := int32(0)
		for r := range starts {
			starts[r], n = n, n+starts[r]
		}
		if cap(order) < len(msgs) {
			order = make([]int32, len(msgs))
		}
		order = order[:len(msgs)]
		for i := range msgs {
			order[starts[msgs[i].dst]] = int32(i)
			starts[msgs[i].dst]++
		}

		at := 0
		for r := 0; r < p; r++ {
			rs := &e.states[r]
			// A gate evaluation works on a copy of the rank's state and never
			// hands the stage label back: the drain is outside any stage.
			rs.StageMark(-1)
			for ; at < int(starts[r]); at++ {
				msg := &msgs[order[at]]
				e.recv(r, int(msg.src), sp.PutTag, &msg.in)
			}
			rs.SuperstepMark(int32(step))
		}
	}
	return e.lastCollapse, nil
}
