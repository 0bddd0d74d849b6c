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
// prescribed edge the sender forwards everything it knows. The billed message
// sizes are the schedule's per-edge payload sizes, i.e. the exact bytes the
// cost model prices. It returns the contributions known to the calling rank
// after the last stage; which ones must be present depends on the
// collective's semantics and is checked by the callers — the typed schedule
// collectives below, and layered run-times implementing their own payload
// types.
//
// No contribution travels in a message. The timing is a signal walk: under
// the default engine the ranks rendezvous at the run's gate and the leader
// evaluates it, under the concurrent engine every rank walks its own edges
// (WalkSchedule). The data is one board per call (simnet.Board), which every
// rank writes its contribution into before its first send, and the
// schedule's reach set (sched.ReachOf), computed once per call: a rank holds
// origin o's contribution when the reach set says o's flood reaches it, and
// the walk that got it there is what orders its read after o's write.
//
// Contributions are shared by reference between the rank goroutines, not
// copied: a rank may return from the collective while slower ranks are still
// reading its contribution. Callers passing mutable values (slices, maps,
// pointers) must either hand over private copies or treat them as immutable
// for the rest of the run, and must not mutate received values; the typed BSP
// collectives copy on both sides for exactly this reason.
func (c *Comm) FloodSchedule(s Schedule, own any) (Flood, error) {
	if err := scheduleFits(s, c.proc); err != nil {
		return Flood{}, err
	}
	board := c.proc.Board()
	board.Set(c.Rank(), own)
	var err error
	if g := c.proc.SharedGate(); g != nil {
		err = g.Arrive(c.proc, floodTicket{s}, func(tickets []any) error {
			for _, t := range tickets {
				if ft, ok := t.(floodTicket); !ok || !SameSchedule(ft.s, s) {
					return errors.New("mpi: ranks disagree on the flooded schedule (schedule collectives are collective)")
				}
			}
			sched.AtGate(g, c.proc, func(ev *sched.Evaluator) { ev.ExecScheduleAuto(s, FloodTagBase, false) })
			return nil
		})
	} else {
		err = WalkSchedule(c.proc, s, FloodTagBase, false)
	}
	if err != nil {
		return Flood{}, err
	}
	reach := board.Shared(func() any { return sched.ReachOf(s) }).(*sched.ReachSet)
	return Flood{board: board, reach: reach, rank: c.Rank(), procs: c.Size()}, nil
}

// floodTicket is the gate ticket of a rank entering a schedule flood: the
// schedule, which the leader checks the ranks agree on.
type floodTicket struct{ s Schedule }

// Flood is what a schedule flood delivered to one rank: a read-only view of
// the call's board through the rank's row of the schedule's reach set.
type Flood struct {
	board       *simnet.Board
	reach       *sched.ReachSet
	rank, procs int
}

// Has reports whether origin's contribution reached the rank.
func (f Flood) Has(origin int) bool {
	return origin >= 0 && origin < f.procs && f.reach.Has(f.rank, origin)
}

// Get returns origin's contribution and whether it reached the rank.
func (f Flood) Get(origin int) (any, bool) {
	if !f.Has(origin) {
		return nil, false
	}
	return f.board.Get(origin), true
}

// Len returns how many contributions reached the rank, its own included.
func (f Flood) Len() int { return f.reach.Count(f.rank) }

// scheduleFits refuses a missing schedule and one built for another rank
// count: too small indexes past its stage rows, too large waits for ranks
// that do not exist.
func scheduleFits(s Schedule, p *simnet.Proc) error {
	if s == nil {
		return errors.New("mpi: nil schedule")
	}
	if s.NumProcs() != p.Size() {
		return fmt.Errorf("mpi: schedule for %d processes on a %d-process run", s.NumProcs(), p.Size())
	}
	return nil
}

// WalkSchedule is the concurrent engine's schedule walker, the per-rank twin
// of sched.Evaluator.ExecSchedule and the general simulation function of
// Fig. 5.5: the calling rank executes its own part of the schedule, per stage
// starting the prescribed receives and sends together and waiting for them
// together (MPI_Startall / MPI_Waitall) — receives first, then sends, in edge
// order. Stage sg's messages carry tag tagBase+sg, are billed at the
// schedule's per-edge payload sizes and carry no payload: the walk is pure
// signals, and collectives that move data read it from a board
// (FloodSchedule). On a stage where the rank has no edges, computeEmpty pays
// the empty Startall/Waitall pair (Compute(0), one noise draw) —
// barrier.Execute's convention; the collectives skip the stage. Edges are
// read through the rank's own sched.StageView (RankEdges), never through
// StageAt, which a streamed schedule answers by materializing an O(P)
// adjacency (P ranks × P−1 stages of that would make a total exchange O(P³)).
//
// It is a collective call: every rank walks the same schedule with the same
// tagBase. Walks may reuse a tag base because mailbox matching is FIFO per
// (source, tag): a rank completes all stage-sg receives of one walk before
// posting those of the next, and senders inject in program order, so streams
// cannot cross-match.
func WalkSchedule(p *simnet.Proc, s Schedule, tagBase int, computeEmpty bool) error {
	if err := scheduleFits(s, p); err != nil {
		return err
	}
	rank := p.Rank()
	view := sched.ViewOf(s)
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
		for k, dst := range outs {
			size := 0
			if outBytes != nil {
				size = outBytes[k]
			}
			reqs = append(reqs, p.Isend(dst, tag, size, nil))
		}
		for _, req := range reqs {
			p.Wait(req)
		}
	}
	return nil
}

// SameSchedule reports whether two ranks entered a collective with the same
// schedule value — identity, not structure: the leader evaluates one value for
// everyone. Values of a type Go cannot compare are taken on trust.
func SameSchedule(a, b Schedule) bool {
	t := reflect.TypeOf(a)
	return t == reflect.TypeOf(b) && (!t.Comparable() || a == b)
}

// BcastSchedule distributes the root's value to every rank by executing the
// schedule (typically a verified broadcast pattern) and returns it on every
// rank.
func (c *Comm) BcastSchedule(s Schedule, root int, value any) (any, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	var own any
	if c.Rank() == root {
		own = value
	}
	f, err := c.FloodSchedule(s, own)
	if err != nil {
		return nil, err
	}
	out, ok := f.Get(root)
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
	if err := c.checkRoot(root); err != nil {
		return 0, err
	}
	f, err := c.FloodSchedule(s, value)
	if err != nil {
		return 0, err
	}
	if c.Rank() != root {
		return 0, nil
	}
	return combineAll(f, op)
}

// AllreduceSchedule combines one float64 per rank with the given operator by
// executing the schedule and returns the result on every rank. Contributions
// are combined in rank order, so the result is deterministic and correct for
// non-idempotent operators on any verified schedule (no double counting).
func (c *Comm) AllreduceSchedule(s Schedule, value float64, op Op) (float64, error) {
	f, err := c.FloodSchedule(s, value)
	if err != nil {
		return 0, err
	}
	return combineAll(f, op)
}

// AllgatherSchedule collects one value per rank by executing the schedule and
// returns the slice indexed by rank, identical on all ranks.
func (c *Comm) AllgatherSchedule(s Schedule, value any) ([]any, error) {
	f, err := c.FloodSchedule(s, value)
	if err != nil {
		return nil, err
	}
	out := make([]any, c.Size())
	for r := range out {
		v, ok := f.Get(r)
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
	f, err := c.FloodSchedule(s, own)
	if err != nil {
		return nil, err
	}
	rank := c.Rank()
	out := make([]any, p)
	for src := 0; src < p; src++ {
		v, _ := f.Get(src)
		row, ok := v.([]any)
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
	f, err := c.FloodSchedule(s, struct{}{})
	if err != nil {
		return err
	}
	if f.Len() != c.Size() {
		return fmt.Errorf("mpi: schedule proved the arrival of %d of %d processes to process %d", f.Len(), c.Size(), c.Rank())
	}
	return nil
}

// combineAll reduces the P contributions in rank order.
func combineAll(f Flood, op Op) (float64, error) {
	if n := f.Len(); n != f.procs {
		return 0, fmt.Errorf("mpi: schedule delivered the operands of %d of %d processes to process %d", n, f.procs, f.rank)
	}
	var acc float64
	for r := range f.procs {
		v := f.board.Get(r)
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
