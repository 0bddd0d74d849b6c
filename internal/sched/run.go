package sched

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

// run is the run frame of the direct engine: the one preamble and close of
// its five whole-run entries — RunSchedule, Run, SweepEvaluator.Run,
// RunSupersteps and Code.Run — which differ only in body, the walk over the
// arena's rank states. The frame refuses a machine without ranks or of other
// than procs ranks; takes the arena (sw's kept one, or one from the pool for
// the run); attaches the recorder's lanes; polls the context and o.Deadline
// once before body runs and hands body the arena's poller for the rest; and,
// once body returns, assembles the result — per-rank times, makespan, traffic
// counters and body's collapse diagnostic — and seals the recording with the
// outcome.
func run(ctx context.Context, m simnet.Machine, procs int, o *simnet.Options, sw *SweepEvaluator, body func(e *Evaluator, chk *stageChecker) (simnet.Collapse, error)) (*simnet.Result, error) {
	if err := checkMachine(m); err != nil {
		return nil, err
	}
	if procs != m.Procs() {
		return nil, fmt.Errorf("sched: input for %d ranks on a %d-rank machine", procs, m.Procs())
	}
	var e *Evaluator
	var err error
	if sw != nil {
		e, err = sw.arena(m)
	} else if e, err = arenaFor(m, o); err == nil {
		defer e.Release()
	}
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	deadline := o.Deadline
	if deadline <= 0 {
		deadline = simnet.DefaultOptions().Deadline
	}
	rec := o.Recorder
	simnet.BeginRecording(rec, m, e.env.Ack, e.env.Faults)
	if rec.Enabled() {
		e.perRank()
		for r := range e.states {
			e.states[r].Attach(rec.LaneOf(r))
		}
	}

	e.chk = stageChecker{ctx: ctx, start: time.Now(), deadline: deadline}
	var collapse simnet.Collapse
	if err = e.chk.check(); err == nil {
		collapse, err = body(e, &e.chk)
	}

	var res *simnet.Result
	if err == nil {
		res = &simnet.Result{Times: e.Times(nil), Messages: e.messages, Bytes: e.bytes, Collapse: collapse}
		for _, t := range res.Times {
			if t > res.MakeSpan {
				res.MakeSpan = t
			}
		}
	}
	simnet.EndRecording(rec, res, e.messages, e.bytes, err, true)
	// A kept arena outlives the run: it must neither pin the finished run's
	// context and recorder nor look traced to the next point.
	e.chk = stageChecker{}
	if rec.Enabled() {
		for r := range e.states {
			e.states[r].Lane = nil
		}
	}
	return res, err
}

// checkMachine refuses a machine without ranks.
func checkMachine(m simnet.Machine) error {
	if m == nil || m.Procs() < 1 {
		return errors.New("sched: machine with at least one rank required")
	}
	return nil
}

// RunSchedule evaluates execs consecutive executions of the schedule for the
// calling goroutine — the counterpart, with no goroutine per rank, of running
// barrier.Execute execs times under mpi.Run; a wide stage is split over up to
// GOMAXPROCS workers (see execStages) — and returns the per-rank virtual
// finishing times. Virtual times, traffic counters and recorded
// events are bit-identical to the concurrent engine's (o.Engine is ignored:
// this entry point IS the direct engine; use simnet/mpi runs for the
// concurrent one).
//
// Cancellation behaves as in the concurrent engine: a cancelled context
// returns an error wrapping simnet.ErrAborted, exceeding o.Deadline returns
// simnet.ErrDeadline. Both are checked before the first execution and then
// every few stages — inside an execution too, because one P=1M execution is
// no longer negligible wall time (the stride shrinks as P grows, so the check
// stays off the hot path at small P and responsive at large P).
//
// When the machine and schedule admit it (see CollapseClasses) and no
// recorder is attached, executions are symmetry-collapsed: one kernel state
// per equivalence class is evaluated, for the class's representative rank,
// and the per-rank times are read off the class states — bit-identical to the
// per-rank sweep. Such a run holds O(classes) state; its O(P) parts are the
// machine, the partition and the result times. Set o.SymmetryCollapse =
// simnet.CollapseOff to force per-rank evaluation.
//
// RunSchedule is a sweep of one point: the arena goes back to the pool
// afterwards and the partition is derived rather than memoized; the body is
// the one SweepEvaluator.Run hands the run frame (execRuns).
func RunSchedule(ctx context.Context, m simnet.Machine, s Schedule, execs int, o simnet.Options) (*simnet.Result, error) {
	if err := checkSchedule(s, execs); err != nil {
		return nil, err
	}
	return run(ctx, m, s.NumProcs(), &o, nil, func(e *Evaluator, chk *stageChecker) (simnet.Collapse, error) {
		return e.execRuns(s, execs, ScheduleTagBase, true, o.Recorder, chk, func() (*Partition, simnet.Collapse) { return collapseClassesWith(m, s, e.env.Faults) })
	})
}

// Run hands body an evaluator with one zeroed kernel state per rank of m, for
// a caller that walks its workload on the states itself — ExecScheduleAuto
// executions timed one by one (barrier.MeasureWith), or LogGP kernel calls
// on the states of Kernel (the pairwise benchmark), whose traffic the caller
// credits with AddTraffic. The frame attaches the recorder's lanes, ack mode,
// the fault plan and the deadline as for every other entry, and assembles the
// result from the states, the traffic counters and the last collapse decision
// of an ExecScheduleAuto. body polls cancellation and o.Deadline through poll,
// which returns the error the run then ends with; o.Engine is ignored, as by
// RunSchedule.
func Run(ctx context.Context, m simnet.Machine, o simnet.Options, body func(ev *Evaluator, poll func() error) error) (*simnet.Result, error) {
	if err := checkMachine(m); err != nil {
		return nil, err
	}
	return run(ctx, m, m.Procs(), &o, nil, func(e *Evaluator, chk *stageChecker) (simnet.Collapse, error) {
		e.perRank()
		err := body(e, chk.check)
		return e.lastCollapse, err
	})
}

// arenaFor takes an evaluator from the pool and sets it up for runs on m: ack
// mode, collapse switch, and the fault plan compiled against m.
func arenaFor(m simnet.Machine, o *simnet.Options) (*Evaluator, error) {
	ft, err := simnet.CompileFaults(o.Faults, m)
	if err != nil {
		return nil, err
	}
	e := newArena(m, o.AckSends)
	e.collapseOff = o.SymmetryCollapse == simnet.CollapseOff
	e.env.Faults = ft
	return e, nil
}

// checkSchedule refuses a nil schedule (a wrapper of none included) or fewer
// than one execution.
func checkSchedule(s Schedule, execs int) error {
	if unwrap(s) == nil {
		return errors.New("sched: nil schedule")
	}
	if execs < 1 {
		return fmt.Errorf("sched: %d executions requested", execs)
	}
	return nil
}

// execRuns is the body RunSchedule and SweepEvaluator.Run hand the run frame:
// execs executions of s from zeroed states, stage s's messages tagged
// tagBase+s, and empty stages paying a Compute(0) when computeEmpty
// (barrier.Execute's convention). partition supplies the machine and schedule
// rows of the collapse decision (decideCollapse) — derived by RunSchedule,
// memoized by a SweepEvaluator; rec is the run's recorder. A collapsed run
// walks the class states alone and leaves the partition for Times; any other
// sizes the arena's per-rank states and walks them.
func (e *Evaluator) execRuns(s Schedule, execs, tagBase int, computeEmpty bool, rec *trace.Recorder, chk *stageChecker, partition func() (*Partition, simnet.Collapse)) (simnet.Collapse, error) {
	// Decide once per run: fresh states are class-aligned (all zero) and
	// collapsed executions preserve alignment, so eligibility never changes
	// mid-run.
	part, collapse := e.decideCollapse(partition, rec.Enabled, func(*Partition) bool { return true })
	if part != nil {
		clear(e.sizeClasses(part.NumClasses()))
		e.rankClass = part
		chk.pace(part.NumClasses())
	} else {
		e.perRank()
		chk.pace(len(e.states))
		if e.terms != nil && !e.terms.admit(s, len(e.states)) {
			e.terms = nil
		}
	}
	for x := 0; x < execs; x++ {
		var err error
		if part != nil {
			err = e.execCollapsed(s, part, tagBase, computeEmpty, chk)
		} else {
			err = e.execStages(s, tagBase, computeEmpty, chk)
		}
		if err != nil {
			return collapse, err
		}
	}
	return collapse, nil
}

// stageCheckBudget is the amount of per-rank (or per-class) stage work a
// stageChecker lets pass between context/deadline checks: the stride is
// stageCheckBudget/width stages, at least 1 — so a P=1M execution checks
// every stage while a P=16 sweep checks every few thousand.
const stageCheckBudget = 1 << 17

// stageChecker is the run frame's poller: it checks cancellation and the
// wall-clock deadline at once (check) or every stride ticks (tick),
// amortizing the check cost against the evaluation work it guards. The
// frame arms the arena's one checker per run; a body that ticks sets the
// stride with pace.
type stageChecker struct {
	ctx      context.Context
	start    time.Time
	deadline time.Duration
	stride   int
	left     int
}

// pace sets the stride for ticks of the given width (ranks or classes
// evaluated per stage).
func (c *stageChecker) pace(width int) {
	c.stride = max(stageCheckBudget/max(width, 1), 1)
	c.left = c.stride
}

// tick counts one stage and polls every stride stages; nil never polls.
func (c *stageChecker) tick() error {
	if c == nil {
		return nil
	}
	if c.left--; c.left > 0 {
		return nil
	}
	c.left = c.stride
	return c.check()
}

// check polls immediately.
func (c *stageChecker) check() error {
	if err := c.ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", simnet.ErrAborted, context.Cause(c.ctx))
	}
	if time.Since(c.start) > c.deadline {
		return simnet.ErrDeadline
	}
	return nil
}

// ScheduleTagBase is the tag space RunSchedule labels stage s's messages
// with (tag ScheduleTagBase+s), matching the constant stage tags of
// barrier.Execute so recorded traces agree between engines.
const ScheduleTagBase = 1 << 20

// ReachSet holds, per rank, the bitset of origins whose contribution a
// knowledge-flooding walk over a schedule delivers to that rank: the sparse
// form of the knowledge matrix K of the thesis' Eqs. 5.1/5.2, reachability in
// place of signal counts. It is the one body of the recursion: the verifier
// checks its final state against a collective's postcondition, the payload
// model (barrier.KnowledgeSized) reads its counts stage by stage, and the
// schedule collectives of both engines (mpi.FloodSchedule) read a call's
// board of contributions through it, no payload ever moving.
//
// A CirculantSchedule gets one P-bit row instead of P: every stage moves every
// rank's knowledge by the same offset, so rank r's set is rank 0's with each
// origin moved up by r, and one row proves all P.
type ReachSet struct {
	p, words   int
	rotated    bool     // bits is rank 0's row alone
	bits, prev []uint64 // prev: the pre-stage snapshot Step reads
}

// NewReachSet returns the state before the schedule's first stage: every rank
// holds its own contribution only (K = I).
func NewReachSet(s Schedule) *ReachSet {
	p := s.NumProcs()
	_, rotated := AsCirculant(s)
	rows, words := p, (p+63)/64
	if rotated {
		rows = 1
	}
	r := &ReachSet{p: p, words: words, rotated: rotated, bits: make([]uint64, rows*words), prev: make([]uint64, rows*words)}
	for j := 0; j < rows; j++ {
		r.bits[j*words+j/64] |= 1 << (uint(j) % 64)
	}
	return r
}

// Step applies the stage the view is pointed at: every receiver absorbs the
// pre-stage set of each of its senders (the K·S term of the recursion,
// evaluated edge by edge). On the single row, rank 0 absorbs the set of rank
// P−off, which is its own moved down by off around the ring of P bits.
func (r *ReachSet) Step(v *StageView) {
	copy(r.prev, r.bits)
	if r.rotated {
		if v.off != 0 {
			orShifted(r.bits, r.prev, -v.off)
			orShifted(r.bits, r.prev, r.p-v.off)
			r.bits[r.words-1] &= ^uint64(0) >> (uint(-r.p) % 64) // what moved up past bit P−1 came down instead
		}
		return
	}
	for i := 0; i < r.p; i++ {
		dests := v.Outs(i)
		if len(dests) == 0 {
			continue
		}
		src := r.prev[i*r.words : (i+1)*r.words]
		for _, j := range dests {
			dst := r.bits[j*r.words : (j+1)*r.words]
			for w := range dst {
				dst[w] |= src[w]
			}
		}
	}
}

// orShifted ORs src, moved up by n bit positions (down when n is negative),
// into dst; bits moved past either end are dropped.
func orShifted(dst, src []uint64, n int) {
	word := func(k int) uint64 {
		if k < 0 || k >= len(src) {
			return 0
		}
		return src[k]
	}
	w, b := n>>6, uint(n&63) // n = 64w + b with 0 ≤ b < 64, also below zero
	for i := range dst {
		dst[i] |= word(i-w)<<b | word(i-w-1)>>(64-b)
	}
}

// ReachOf runs the knowledge recursion over all stages of the schedule.
func ReachOf(s Schedule) *ReachSet {
	r := NewReachSet(s)
	v := ViewOf(s)
	for sg := 0; sg < s.NumStages(); sg++ {
		v.Load(sg)
		r.Step(&v)
	}
	return r
}

// row returns the words of rank's set and how far each bit in them is moved
// up, around the ring of P, to name an origin.
func (r *ReachSet) row(rank int) ([]uint64, int) {
	if r.rotated {
		return r.bits, rank
	}
	return r.bits[rank*r.words : (rank+1)*r.words], 0
}

// Has reports whether origin's contribution reaches rank.
func (r *ReachSet) Has(rank, origin int) bool {
	row, up := r.row(rank)
	b := origin - up
	if b < 0 {
		b += r.p
	}
	return row[b/64]&(1<<(uint(b)%64)) != 0
}

// Count returns the number of origins reaching rank.
func (r *ReachSet) Count(rank int) int {
	row, _ := r.row(rank)
	n := 0
	for _, w := range row {
		n += bits.OnesCount64(w)
	}
	return n
}
