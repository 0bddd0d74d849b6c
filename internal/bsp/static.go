package bsp

import (
	"context"
	"errors"
	"fmt"

	"hbsp/internal/sched"
	"hbsp/internal/simnet"
)

// Static is a BSP program with every operand fixed up front — compute
// intervals and puts of known sizes, the shape of the thesis' BSP benchmarks
// and of the stencil. Superstep 0 synchronizes with nothing sent (the
// registration superstep); in each of the Supersteps after it a process issues
// its computes and puts and synchronizes; after the last it issues its closing
// computes. Program replays it on a Ctx per process, RunStatic prices it with
// no process goroutines at all.
type Static struct {
	// Supersteps is the number of supersteps after the registration one.
	Supersteps int
	// Step issues to ops, in order, what process pid of p does in superstep
	// step (0-based); Step(Supersteps, …) issues the closing computes and no
	// put. It must be a pure function: every process calls it, concurrently.
	Step func(step, pid, p int, ops sched.Ops)
}

// Program returns the SPMD body that replays the description on a Ctx.
func (sp *Static) Program() Program {
	return func(c *Ctx) error {
		ops := &replayOps{c: c}
		err := c.Sync() // the registration superstep
		for step := 0; step <= sp.Supersteps && err == nil; step++ {
			ops.closing = step == sp.Supersteps
			sp.Step(step, c.Pid(), c.NProcs(), ops)
			if err = ops.err; err == nil && !ops.closing {
				err = c.Sync()
			}
		}
		return err
	}
}

// replayOps issues a description's operations on a Ctx. A put goes out as a
// BSMP message, of a put's tag and wire size, which needs no registered area
// to land in.
type replayOps struct {
	c       *Ctx
	closing bool
	values  []float64
	err     error
}

func (o *replayOps) Compute(w sched.Work) {
	if w.Kernel != nil {
		o.c.ComputeKernel(*w.Kernel, w.Cells, 1)
	} else {
		o.c.Compute(w.Seconds)
	}
}

func (o *replayOps) Put(dst, n int) {
	if o.closing || n < 0 {
		o.err = fmt.Errorf("bsp: static program puts %d elements after its last superstep or a negative size", n)
		return
	}
	if len(o.values) < n {
		o.values = make([]float64, n)
	}
	if err := o.c.Send(dst, 0, o.values[:n]); err != nil {
		o.err = err
	}
}

// RunStatic evaluates the program on the direct engine alone
// (sched.RunSupersteps): per superstep the computes and the eager puts, the
// synchronizer's count exchange and the drain, then the closing computes, with
// virtual times, traffic, collapse diagnostic and recorded events
// bit-identical to running Program under RunContext with the same
// synchronizer (nil: the default) and options on either engine. Memory is O(P)
// where a run holds P goroutines and their mailboxes; o.Engine is ignored.
func RunStatic(ctx context.Context, m Machine, sync Synchronizer, sp *Static, o simnet.Options) (*simnet.Result, error) {
	if m == nil {
		return nil, errors.New("bsp: nil machine")
	}
	if sync == nil {
		sync = DefaultSynchronizer()
	}
	p := m.Procs()
	exchange, err := sync.exchangeSchedule(p)
	if err != nil {
		return nil, err
	}
	return sched.RunSupersteps(ctx, m, &sched.Supersteps{
		Steps: sp.Supersteps + 1,
		Step: func(step, rank int, ops sched.Ops) {
			if step > 0 { // superstep 0 registers: no compute, no puts
				sp.Step(step-1, rank, p, ops)
			}
		},
		KernelTime:  m.KernelTime,
		PutBytes:    putBytes,
		PutTag:      tagOneSided,
		Exchange:    exchange,
		ExchangeTag: tagCountBase,
	}, o)
}
