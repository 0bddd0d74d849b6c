package sched

import (
	"context"
	"errors"
	"fmt"

	"hbsp/internal/loggp"
	"hbsp/internal/simnet"
)

// Supersteps is a BSP program reduced to what prices it, for RunSupersteps:
// in every superstep each rank computes, posts eager one-sided messages of
// one size, and synchronizes — the count exchange of the thesis' Section 6.4,
// one execution of a schedule — after which it drains the messages addressed
// to it. It is the superstep counterpart of a simnet.Program: every operand
// is fixed up front, so no rank goroutine has to run to find it out.
type Supersteps struct {
	// Steps is the number of supersteps.
	Steps int
	// Step appends to dsts the ranks that rank posts one message to in
	// superstep step, in issue order (itself included, if it does), and
	// returns with them the seconds it computes first — one noisy Compute
	// call; negative for a rank that does not call Compute at all, which
	// draws no noise. The walker reuses the slice it is handed back.
	Step func(step, rank int, dsts []int) (seconds float64, out []int)
	// PutBytes and PutTag are the size and tag of every posted message.
	PutBytes, PutTag int
	// Exchange is the count exchange that ends every superstep, stage s of it
	// tagged ExchangeTag+s. The same value every superstep keys the
	// evaluator's partition cache.
	Exchange    Schedule
	ExchangeTag int
}

// posted is one eager message between the Post that priced it and the Recv
// that drains it.
type posted struct {
	in       loggp.Edge
	src, dst int32
}

// RunSupersteps evaluates the program on the calling goroutine — a body of
// the run frame beside RunSchedule's and Code.Run's, and the goroutine-free
// counterpart of replaying the same supersteps on a bsp.Ctx per rank. Virtual
// times, traffic counters, the collapse diagnostic (the last exchange's
// decision) and recorded events are bit-identical to that run's under either
// engine. Cancellation and o.Deadline are polled once per superstep and
// return the errors the concurrent engine produces; o.Engine is ignored, as
// by RunSchedule.
//
// The walk reproduces bsp.Ctx.Sync's order of operations: every rank's
// compute and posts, the exchange as the run's gate evaluates it
// (ExecScheduleAuto on the ranks' live states), the drain in source order (per
// source in issue order), the superstep mark. Posts and drains of different
// ranks commute — a post touches only the sender, a drain only the receiver
// and a message already priced — so walking them rank by rank is the
// concurrent order as far as any clock can tell. TestRunStaticMatchesReplay
// and TestCrossRouteEquivalence hold the two walks together.
func RunSupersteps(ctx context.Context, m simnet.Machine, sp *Supersteps, o simnet.Options) (*simnet.Result, error) {
	if sp == nil || sp.Step == nil || sp.Exchange == nil {
		return nil, errors.New("sched: superstep program needs a step function and an exchange schedule")
	}
	return run(ctx, m, sp.Exchange.NumProcs(), &o, nil, sp.walk)
}

// walk is RunSupersteps' body.
func (sp *Supersteps) walk(e *Evaluator, chk *stageChecker) (simnet.Collapse, error) {
	p := len(e.states)
	env := &e.env
	var (
		msgs  []posted // this superstep's messages, in sender scan order
		order []int32  // indices into msgs, grouped by receiver
		dsts  []int
	)
	for step := 0; step < sp.Steps; step++ {
		if err := chk.check(); err != nil {
			return simnet.Collapse{}, err
		}
		msgs = msgs[:0]
		for r := 0; r < p; r++ {
			var seconds float64
			seconds, dsts = sp.Step(step, r, dsts[:0])
			if seconds >= 0 {
				e.states[r].Compute(env, r, seconds)
			}
			for _, dst := range dsts {
				if dst < 0 || dst >= p {
					return simnet.Collapse{}, fmt.Errorf("sched: superstep %d: rank %d posts to invalid rank %d", step, r, dst)
				}
				msgs = append(msgs, posted{src: int32(r), dst: int32(dst)})
				e.Post(r, dst, sp.PutTag, sp.PutBytes, &msgs[len(msgs)-1].in)
			}
		}

		e.ExecScheduleAuto(sp.Exchange, sp.ExchangeTag, false)

		// Group the messages by receiver, stably: within a receiver they stay
		// in sender scan order, which is the drain's source order. inNext is
		// the exchange's scratch, free again now.
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
				e.Recv(r, int(msg.src), sp.PutTag, &msg.in)
			}
			rs.SuperstepMark(int32(step))
		}
	}
	return e.lastCollapse, nil
}
