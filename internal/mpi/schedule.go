package mpi

import (
	"errors"
	"fmt"
	"reflect"

	"hbsp/internal/sched"
	"hbsp/internal/simnet"
)

// Schedule is what the Comm schedule collectives execute: the evaluator's
// sched.Schedule, the one schedule type of the repository. A
// barrier.Pattern (every generator, the model-selected hybrids of
// internal/adapt) and the streamed generators satisfy it alike.
type Schedule = sched.Schedule

// FloodTagBase is the base tag of the schedule-executing collectives (stage s
// carries FloodTagBase+s; see WalkSchedule on reusing it across calls).
const FloodTagBase = 1 << 29

// FloodSchedule executes the schedule with knowledge-flooding data semantics:
// every rank starts out knowing only its own contribution, and along every
// prescribed edge the sender forwards everything it knows, keyed by
// originating rank. The billed message sizes are the schedule's per-edge
// payload sizes, i.e. the exact bytes the cost model prices. It returns the
// contributions known to the calling rank after the last stage; which entries
// must be present depends on the collective's semantics and is checked by the
// callers — the typed schedule collectives below, and layered run-times
// implementing their own payload types.
//
// Under the default engine the ranks rendezvous at the run's gate and the
// leader evaluates the flood (floodDirect). Under the concurrent engine every
// rank walks its own edges (WalkSchedule).
//
// Contributions travel by reference between the rank goroutines, not copied: a
// rank may return from the collective while slower ranks are still reading
// its contribution. Callers passing mutable values (slices, maps, pointers)
// must either hand over private copies or treat them as immutable for the
// rest of the run, and must not mutate received values; the typed BSP
// collectives copy on both sides for exactly this reason.
func (c *Comm) FloodSchedule(s Schedule, own any) (map[int]any, error) {
	if g := c.proc.SharedGate(); g != nil {
		return c.floodDirect(g, s, own)
	}
	known := map[int]any{c.Rank(): own}
	if err := WalkSchedule(c.proc, s, FloodTagBase, false, known); err != nil {
		return nil, err
	}
	return known, nil
}

// scheduleFits refuses a schedule built for another rank count: too small
// indexes past its stage rows, too large waits for ranks that do not exist.
func scheduleFits(s Schedule, p *simnet.Proc) error {
	if s.NumProcs() != p.Size() {
		return fmt.Errorf("mpi: schedule for %d processes on a %d-process run", s.NumProcs(), p.Size())
	}
	return nil
}

// flooded is one contribution in flight, with the rank it originated on.
type flooded struct {
	origin int
	value  any
}

// WalkSchedule is the concurrent engine's schedule walker, the per-rank twin
// of sched.Evaluator.ExecSchedule and the general simulation function of
// Fig. 5.5: the calling rank executes its own part of the schedule, per stage
// starting the prescribed receives and sends together and waiting for them
// together (MPI_Startall / MPI_Waitall) — receives first, then sends, in edge
// order. Stage sg's messages carry tag tagBase+sg and are billed at the
// schedule's per-edge payload sizes. On a stage where the rank has no edges,
// computeEmpty pays the empty Startall/Waitall pair (Compute(0), one noise
// draw) — barrier.Execute's convention; the collectives skip the stage.
// Edges are read through the rank's own sched.StageView (RankEdges), never
// through StageAt, which a streamed schedule answers by materializing an O(P)
// adjacency (P ranks × P−1 stages of that would make a total exchange O(P³)).
//
// known is the payload. A nil map walks pure signals. Otherwise it holds the
// contributions the rank knows on entry, keyed by originating rank, and the
// walk floods them: along every out-edge travels everything the rank knew
// when the stage began, and what arrives is merged in, the first arrival of
// an origin winning; on return known holds every contribution that reached
// the rank. Values travel by reference (see FloodSchedule).
//
// It is a collective call: every rank walks the same schedule with the same
// tagBase. Walks may reuse a tag base because mailbox matching is FIFO per
// (source, tag): a rank completes all stage-sg receives of one walk before
// posting those of the next, and senders inject in program order, so streams
// cannot cross-match.
func WalkSchedule(p *simnet.Proc, s Schedule, tagBase int, computeEmpty bool, known map[int]any) error {
	if err := scheduleFits(s, p); err != nil {
		return err
	}
	rank := p.Rank()
	view := sched.ViewOf(s)
	// What the rank knows, in arrival order. It only ever grows at the end,
	// so the prefix that exists when a stage begins is that stage's snapshot:
	// receivers read it in place while the owner keeps appending behind it.
	var flood []flooded
	for origin, v := range known {
		flood = append(flood, flooded{origin, v})
	}
	// On traced runs, bracket every stage for per-stage attribution (checked
	// once so untraced walks pay nothing per stage).
	traced := p.Tracing()
	if traced {
		defer p.TraceStage(-1)
	}
	var reqs []*simnet.Request // scratch, reused across stages
	for stage := 0; stage < s.NumStages(); stage++ {
		if traced {
			p.TraceStage(stage)
		}
		ins, outs, outBytes := view.RankEdges(stage, rank)
		if len(ins) == 0 && len(outs) == 0 {
			if computeEmpty {
				p.Compute(0)
			}
			continue
		}
		tag := tagBase + stage
		reqs = reqs[:0]
		for _, src := range ins {
			reqs = append(reqs, p.Irecv(src, tag))
		}
		var snapshot any
		if known != nil && len(outs) > 0 {
			snapshot = flood[:len(flood):len(flood)]
		}
		for k, dst := range outs {
			size := 0
			if outBytes != nil {
				size = outBytes[k]
			}
			reqs = append(reqs, p.Isend(dst, tag, size, snapshot))
		}
		for k, req := range reqs {
			in := p.Wait(req)
			if known == nil || k >= len(ins) {
				continue
			}
			got, ok := in.([]flooded)
			if !ok {
				return fmt.Errorf("mpi: process %d received a malformed flood payload from %d", rank, ins[k])
			}
			for _, f := range got {
				if _, seen := known[f.origin]; !seen {
					known[f.origin] = f.value
					flood = append(flood, f)
				}
			}
		}
	}
	return nil
}

// floodTicket is the rendezvous descriptor of one rank entering a schedule
// flood: the schedule (the leader verifies agreement), the rank's own
// contribution, and the slot the leader deposits its known-contributions map
// in.
type floodTicket struct {
	s   Schedule
	own any
	out *map[int]any
}

// SameSchedule reports whether two ranks entered a collective with the same
// schedule value — identity, not structure: the leader evaluates one value for
// everyone. Values of a type Go cannot compare are taken on trust.
func SameSchedule(a, b Schedule) bool {
	t := reflect.TypeOf(a)
	return t == reflect.TypeOf(b) && (!t.Comparable() || a == b)
}

// floodDirect evaluates the flood at the run's gate: the timing — every
// prescribed edge billed at the schedule's per-edge payload size — is
// evaluated sequentially against the live per-rank clocks, and the data
// plane collapses to the knowledge recursion: rank j's known map holds
// exactly the contributions of the origins whose flooding reaches j, by
// reference, which is precisely what the concurrent walk's merge loop
// produces message by message.
func (c *Comm) floodDirect(g *simnet.Gate, s Schedule, own any) (map[int]any, error) {
	if err := scheduleFits(s, c.proc); err != nil {
		return nil, err
	}
	var known map[int]any
	t := &floodTicket{s: s, own: own, out: &known}
	err := g.Arrive(c.proc, t, func(tickets []any) error {
		p := c.Size()
		owns := make([]any, p)
		for r, ti := range tickets {
			ft, ok := ti.(*floodTicket)
			if !ok || !SameSchedule(ft.s, s) {
				return errors.New("mpi: ranks disagree on the flooded schedule (schedule collectives are collective)")
			}
			owns[r] = ft.own
		}
		sched.AtGate(g, c.proc, func(ev *sched.Evaluator) { ev.ExecScheduleAuto(s, FloodTagBase, false) })
		reach := sched.ReachOf(s)
		for r, ti := range tickets {
			ft := ti.(*floodTicket)
			m := make(map[int]any, reach.Count(r))
			reach.ForEach(r, func(origin int) { m[origin] = owns[origin] })
			*ft.out = m
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return known, nil
}

// BcastSchedule distributes the root's value to every rank by executing the
// schedule (typically a verified broadcast pattern) and returns it on every
// rank.
func (c *Comm) BcastSchedule(s Schedule, root int, value any) (any, error) {
	if root < 0 || root >= c.Size() {
		return nil, fmt.Errorf("%w: %d", ErrInvalidRoot, root)
	}
	var own any
	if c.Rank() == root {
		own = value
	}
	known, err := c.FloodSchedule(s, own)
	if err != nil {
		return nil, err
	}
	out, ok := known[root]
	if !ok {
		return nil, fmt.Errorf("mpi: schedule never delivered the root's message to process %d", c.Rank())
	}
	return out, nil
}

// ReduceSchedule combines one float64 per rank with the given operator by
// executing the schedule (typically a verified reduce pattern) and returns
// the result on the root; other ranks receive zero. Contributions are
// combined in rank order, so the result is deterministic for any operator.
func (c *Comm) ReduceSchedule(s Schedule, root int, value float64, op Op) (float64, error) {
	if root < 0 || root >= c.Size() {
		return 0, fmt.Errorf("%w: %d", ErrInvalidRoot, root)
	}
	known, err := c.FloodSchedule(s, value)
	if err != nil {
		return 0, err
	}
	if c.Rank() != root {
		return 0, nil
	}
	return combineAll(known, c.Size(), op)
}

// AllreduceSchedule combines one float64 per rank with the given operator by
// executing the schedule and returns the result on every rank. Contributions
// are combined in rank order, so the result is deterministic and correct for
// non-idempotent operators on any verified schedule (no double counting).
func (c *Comm) AllreduceSchedule(s Schedule, value float64, op Op) (float64, error) {
	known, err := c.FloodSchedule(s, value)
	if err != nil {
		return 0, err
	}
	return combineAll(known, c.Size(), op)
}

// AllgatherSchedule collects one value per rank by executing the schedule and
// returns the slice indexed by rank, identical on all ranks.
func (c *Comm) AllgatherSchedule(s Schedule, value any) ([]any, error) {
	known, err := c.FloodSchedule(s, value)
	if err != nil {
		return nil, err
	}
	out := make([]any, c.Size())
	for r := range out {
		v, ok := known[r]
		if !ok {
			return nil, fmt.Errorf("mpi: schedule never delivered the contribution of process %d to process %d", r, c.Rank())
		}
		out[r] = v
	}
	return out, nil
}

// TotalExchangeSchedule performs an all-to-all personalized exchange by
// executing the schedule: blocks[j] is the value this rank sends to rank j,
// and the returned slice holds, per source rank, the value addressed to this
// rank.
func (c *Comm) TotalExchangeSchedule(s Schedule, blocks []any) ([]any, error) {
	p := c.Size()
	if len(blocks) != p {
		return nil, fmt.Errorf("mpi: total exchange needs %d blocks, got %d", p, len(blocks))
	}
	own := append([]any(nil), blocks...)
	known, err := c.FloodSchedule(s, own)
	if err != nil {
		return nil, err
	}
	rank := c.Rank()
	out := make([]any, p)
	for src := 0; src < p; src++ {
		row, ok := known[src].([]any)
		if !ok {
			return nil, fmt.Errorf("mpi: schedule never delivered the blocks of process %d to process %d", src, rank)
		}
		out[src] = row[rank]
	}
	return out, nil
}

// BarrierSchedule synchronizes all ranks by executing the schedule (typically
// a verified barrier pattern): it returns only once the calling rank can
// account for the arrival of every rank.
func (c *Comm) BarrierSchedule(s Schedule) error {
	known, err := c.FloodSchedule(s, struct{}{})
	if err != nil {
		return err
	}
	for r := 0; r < c.Size(); r++ {
		if _, ok := known[r]; !ok {
			return fmt.Errorf("mpi: schedule never proved the arrival of process %d to process %d", r, c.Rank())
		}
	}
	return nil
}

// combineAll reduces the P contributions in rank order.
func combineAll(known map[int]any, p int, op Op) (float64, error) {
	var acc float64
	for r := 0; r < p; r++ {
		v, ok := known[r]
		if !ok {
			return 0, fmt.Errorf("mpi: schedule never delivered the operand of process %d", r)
		}
		fv, ok := v.(float64)
		if !ok {
			return 0, fmt.Errorf("mpi: operand of process %d is %T, want float64", r, v)
		}
		if r == 0 {
			acc = fv
			continue
		}
		acc = op(acc, fv)
	}
	return acc, nil
}
