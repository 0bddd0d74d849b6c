package bsp

import (
	"context"
	"errors"

	"hbsp/internal/sched"
	"hbsp/internal/simnet"
)

// Static is a BSP program with every operand fixed up front — a fixed
// h-relation per superstep, the shape the thesis' BSP benchmarks have.
// Superstep 0 registers a one-element area on every process and
// synchronizes; in each of the Supersteps supersteps after it a process
// computes, puts one element into the area of each process Step names, and
// synchronizes. One description serves both ways of running it: Program
// replays it on a Ctx per process, RunStatic prices it with no process
// goroutines at all.
type Static struct {
	// Supersteps is the number of supersteps after the registration one.
	Supersteps int
	// Step appends to dsts the processes that process pid of p puts to in
	// superstep step (0-based, the registration superstep not counted), in
	// issue order, and returns with them the seconds it computes first. It
	// must be a pure function: every process calls it, concurrently.
	Step func(step, pid, p int, dsts []int) (seconds float64, out []int)
}

// staticArea is the registration name of a static program's one area.
const staticArea = "x"

// Program returns the SPMD body that replays the description on a Ctx.
func (sp *Static) Program() Program {
	return func(c *Ctx) error {
		p, pid := c.NProcs(), c.Pid()
		c.PushReg(staticArea, make([]float64, 1))
		if err := c.Sync(); err != nil {
			return err
		}
		var dsts []int
		value := []float64{0}
		for step := 0; step < sp.Supersteps; step++ {
			var seconds float64
			seconds, dsts = sp.Step(step, pid, p, dsts[:0])
			c.Compute(seconds)
			for _, dst := range dsts {
				if err := c.Put(dst, staticArea, 0, value); err != nil {
					return err
				}
			}
			if err := c.Sync(); err != nil {
				return err
			}
		}
		return nil
	}
}

// RunStatic evaluates the program on the direct engine alone
// (sched.RunSupersteps): per superstep the computes and the eager puts, the
// synchronizer's count exchange and the drain, with virtual times, traffic,
// collapse diagnostic and recorded events bit-identical to running Program
// under RunContext with the same synchronizer (nil: the default) and options
// on either engine. Memory is O(P) where a run holds P goroutines, P count
// rows of P entries per superstep and a registration map per process; o.Engine
// is ignored.
func RunStatic(ctx context.Context, m simnet.Machine, sync Synchronizer, sp *Static, o simnet.Options) (*simnet.Result, error) {
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
		Step: func(step, rank int, dsts []int) (float64, []int) {
			if step == 0 {
				return -1, dsts // registration: no compute call, no puts
			}
			seconds, dsts := sp.Step(step-1, rank, p, dsts)
			return max(seconds, 0), dsts // Ctx.Compute's clamp; negative would mean "no call"
		},
		PutBytes:    putBytes(1),
		PutTag:      tagOneSided,
		Exchange:    exchange,
		ExchangeTag: tagCountBase,
	}, o)
}
