package bsp

import (
	"errors"
	"fmt"

	"hbsp/internal/mpi"
	"hbsp/internal/sched"
)

// Sync ends the current superstep (bsp_sync). It implements the thesis'
// design: a total exchange of per-pair message counts (Section 6.4) — run by
// the configured Synchronizer, the dissemination pattern by default —
// establishes how many eagerly injected one-sided messages each process must
// drain; the messages are then drained (benefitting from any overlap already
// achieved in the background), get requests are served against the pre-put
// state of the registered areas, buffered puts are applied, pending
// registrations take effect, and the BSMP queue is swapped.
//
// sched.RunSupersteps (behind RunStatic) walks this same order for programs
// of puts alone with no process running; a change to what Sync bills, or in
// which order, belongs in both.
func (c *Ctx) Sync() error {
	from, err := c.runExchange()
	if err != nil {
		return err
	}

	// Drain every one-sided message addressed to this process, in source
	// order. Puts are deferred so that gets observe the pre-put state.
	var puts []*putMsg
	for _, src := range from {
		payload := c.proc.Recv(int(src), tagOneSided)
		msg, ok := payload.(*oneSided)
		if !ok {
			return fmt.Errorf("bsp: process %d received an unexpected message type from %d", c.Pid(), src)
		}
		switch {
		case msg.Put != nil:
			puts = append(puts, msg.Put)
		case msg.Get != nil:
			if err := c.serveGet(msg.Get); err != nil {
				return err
			}
		case msg.Bsmp != nil:
			c.nextQueue = append(c.nextQueue, *msg.Bsmp)
		default:
			return fmt.Errorf("bsp: process %d received an empty one-sided message from %d", c.Pid(), src)
		}
	}

	// Collect the replies to this process' own get requests, in issue order.
	for _, g := range c.pendingGets {
		payload := c.proc.Recv(g.src, tagGetReply)
		data, ok := payload.([]float64)
		if !ok {
			return fmt.Errorf("bsp: process %d received a malformed get reply from %d", c.Pid(), g.src)
		}
		if len(data) != len(g.dest) {
			return fmt.Errorf("bsp: get reply from %d has %d elements, expected %d", g.src, len(data), len(g.dest))
		}
		copy(g.dest, data)
	}

	// Apply buffered puts now that all gets (everywhere) observe the old
	// state of this process' areas.
	for _, put := range puts {
		if err := c.applyPut(put); err != nil {
			return err
		}
	}

	// Registrations and de-registrations committed during the superstep take
	// effect now.
	for _, op := range c.pendingReg {
		if op.push {
			c.regs[op.name] = op.buf
		} else {
			delete(c.regs, op.name)
		}
	}
	c.pendingReg = c.pendingReg[:0]

	// The BSMP queue delivered by this synchronization replaces the previous
	// superstep's queue.
	c.queue = c.nextQueue
	c.nextQueue = nil

	// Reset per-superstep state.
	c.sent = c.sent[:0]
	c.pendingGets = c.pendingGets[:0]
	c.currentStep++
	c.proc.TraceSuperstep(c.currentStep - 1)
	return nil
}

// runExchange performs the count total exchange on the engine the run
// selected and returns the sources of this process' incoming one-sided
// messages, in source order and with multiplicity. The timing is the
// synchronizer's exchange schedule: by default evaluated at the run's gate by
// the goroutine-free discrete-event evaluator, under WithConcurrentEngine
// walked by every rank as signals (mpi.WalkSchedule), with bit-identical
// virtual times. The data is the call's board, which every rank writes the
// destinations of its one-sided messages into before the exchange. Every
// synchronizer's schedule reaches every rank from every rank, so after it any
// rank may read every slot: the first to get there builds all P in-lists,
// O(P + messages), and each rank takes its own. The lists are read inside
// Shared only, so a rank's own is free for reuse once Shared returns.
func (c *Ctx) runExchange() ([]int32, error) {
	p := c.NProcs()
	board := c.proc.Board()
	board.Set(c.Pid(), c.sent)
	var err error
	if g := c.proc.SharedGate(); g != nil {
		err = g.Arrive(c.proc, c.sync, func(tickets []any) error {
			for _, t := range tickets {
				if t != any(c.sync) {
					return errors.New("bsp: ranks disagree on the superstep synchronizer (Sync is collective)")
				}
			}
			sch, err := c.sync.exchangeSchedule(p)
			if err == nil {
				sched.AtGate(g, c.proc, func(ev *sched.Evaluator) { ev.ExecScheduleAuto(sch, tagCountBase, false) })
			}
			return err
		})
	} else {
		var sch sched.Schedule
		if sch, err = c.sync.exchangeSchedule(p); err == nil {
			err = mpi.WalkSchedule(c.proc, sch, tagCountBase, false)
		}
	}
	if err != nil {
		return nil, err
	}
	from := board.Shared(func() any {
		from := make([][]int32, p)
		for src := range p {
			for _, dst := range board.Get(src).([]int32) {
				from[dst] = append(from[dst], int32(src))
			}
		}
		return from
	}).([][]int32)
	return from[c.Pid()], nil
}

// serveGet reads the requested slice of a registered area and sends it back
// to the requester.
func (c *Ctx) serveGet(req *getReq) error {
	buf, ok := c.regs[req.Name]
	if !ok {
		return fmt.Errorf("%w: %q on process %d", ErrNotRegistered, req.Name, c.Pid())
	}
	if req.Offset < 0 || req.N > len(buf)-req.Offset {
		return fmt.Errorf("bsp: get of [%d,%d) %w %q of length %d on process %d",
			req.Offset, req.Offset+req.N, errRange, req.Name, len(buf), c.Pid())
	}
	data := append([]float64(nil), buf[req.Offset:req.Offset+req.N]...)
	c.proc.Post(req.Requester, tagGetReply, headerBytes+8*len(data), data)
	return nil
}

// applyPut writes a buffered put into the local registered area.
func (c *Ctx) applyPut(put *putMsg) error {
	buf, ok := c.regs[put.Name]
	if !ok {
		return fmt.Errorf("%w: %q on process %d", ErrNotRegistered, put.Name, c.Pid())
	}
	if put.Offset < 0 || len(put.Data) > len(buf)-put.Offset {
		return fmt.Errorf("bsp: put of [%d,%d) %w %q of length %d on process %d",
			put.Offset, put.Offset+len(put.Data), errRange, put.Name, len(buf), c.Pid())
	}
	copy(buf[put.Offset:], put.Data)
	return nil
}
