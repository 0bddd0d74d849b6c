package sched

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"hbsp/internal/fault"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

// attachRecorder opens the run on the recorder and points every rank's events
// at its lane.
func (e *Evaluator) attachRecorder(rec *trace.Recorder) {
	simnet.BeginRecording(rec, e.m, e.env.Ack, e.env.Faults)
	if rec.Enabled() {
		for r := range e.states {
			e.states[r].Attach(rec.LaneOf(r))
		}
	}
}

// finish seals the run's recording with its outcome and passes the outcome
// through; res carries the traffic counters on success. The lanes are let go
// of here: a kept arena (SweepEvaluator) outlives the run, and must neither
// pin the finished run's recorder nor look traced to the next point.
func (e *Evaluator) finish(rec *trace.Recorder, res *simnet.Result, err error) (*simnet.Result, error) {
	if res != nil {
		res.Messages, res.Bytes = e.messages, e.bytes
	}
	simnet.EndRecording(rec, res, e.messages, e.bytes, err, true)
	if rec.Enabled() {
		for r := range e.states {
			e.states[r].Lane = nil
		}
	}
	return res, err
}

// result assembles a simnet.Result from the evaluator's state.
func (e *Evaluator) result() *simnet.Result {
	res := &simnet.Result{Times: e.Times(nil)}
	for _, t := range res.Times {
		if t > res.MakeSpan {
			res.MakeSpan = t
		}
	}
	return res
}

// RunSchedule evaluates execs consecutive executions of the schedule on the
// calling goroutine — the goroutine-free counterpart of running
// barrier.Execute execs times under mpi.Run — and returns the per-rank
// virtual finishing times. Virtual times, traffic counters and recorded
// events are bit-identical to the concurrent engine's (o.Engine is ignored:
// this entry point IS the direct engine; use simnet/mpi runs for the
// concurrent one).
//
// Cancellation behaves as in the concurrent engine: a cancelled context
// returns an error wrapping simnet.ErrAborted, exceeding o.Deadline returns
// simnet.ErrDeadline. Both are checked between executions and — because one
// P=1M execution is no longer negligible wall time — every few stages inside
// an execution (the stride shrinks as P grows, so the check stays off the
// hot path at small P and responsive at large P).
//
// When the machine and schedule admit it (see CollapseClasses) and no
// recorder is attached, executions are symmetry-collapsed: one
// representative rank per equivalence class is evaluated and the class
// states assembled at the end, bit-identical to the per-rank sweep. Set
// o.SymmetryCollapse = simnet.CollapseOff to force per-rank evaluation.
//
// RunSchedule is a sweep of one point: the arena goes back to the pool
// afterwards and the partition is derived rather than memoized; the run body
// is the one SweepEvaluator.Run uses (runOn).
func RunSchedule(ctx context.Context, m simnet.Machine, s Schedule, execs int, o simnet.Options) (*simnet.Result, error) {
	if err := checkRun(m, s, execs); err != nil {
		return nil, err
	}
	opt := SweepOptions{AckSends: o.AckSends, SymmetryCollapse: o.SymmetryCollapse, ComputeEmpty: true,
		Faults: o.Faults, Recorder: o.Recorder, Deadline: o.Deadline}
	e, err := arenaFor(m, o.AckSends, o.SymmetryCollapse, o.Faults)
	if err != nil {
		return nil, err
	}
	defer e.Release()
	return e.runOn(ctx, s, execs, &opt, func() (*Partition, simnet.Collapse) { return collapseClassesWith(m, s, e.env.Faults) })
}

// arenaFor takes an evaluator from the pool and sets it up for runs on m: ack
// mode, collapse switch, and the fault plan compiled against m.
func arenaFor(m simnet.Machine, ack bool, collapse simnet.CollapseMode, plan *fault.Plan) (*Evaluator, error) {
	ft, err := simnet.CompileFaults(plan, m)
	if err != nil {
		return nil, err
	}
	e := NewEvaluator(m, ack)
	e.collapseOff = collapse == simnet.CollapseOff
	e.env.Faults = ft
	return e, nil
}

// checkRun validates the arguments of one run.
func checkRun(m simnet.Machine, s Schedule, execs int) error {
	if m == nil || m.Procs() < 1 {
		return errors.New("sched: machine with at least one rank required")
	}
	if s == nil {
		return errors.New("sched: nil schedule")
	}
	if s.NumProcs() != m.Procs() {
		return fmt.Errorf("sched: schedule for %d ranks on a %d-rank machine", s.NumProcs(), m.Procs())
	}
	if execs < 1 {
		return fmt.Errorf("sched: %d executions requested", execs)
	}
	return nil
}

// runOn is the run body of RunSchedule and SweepEvaluator.Run: execs
// executions of s from the zeroed states of an arena set up by arenaFor under
// the same opt and pointed at the run's machine. partition supplies the
// machine and schedule rows of the collapse decision (decideCollapse) —
// derived by RunSchedule, memoized by a SweepEvaluator.
func (e *Evaluator) runOn(ctx context.Context, s Schedule, execs int, opt *SweepOptions, partition func() (*Partition, simnet.Collapse)) (*simnet.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	deadline, tagBase := opt.Deadline, opt.TagBase
	if deadline <= 0 {
		deadline = simnet.DefaultOptions().Deadline
	}
	if tagBase == 0 {
		tagBase = ScheduleTagBase
	}
	e.attachRecorder(opt.Recorder)

	// Decide once per run: fresh states are class-aligned (all zero) and
	// collapsed executions preserve alignment, so eligibility never changes
	// mid-run.
	part, collapse := e.decideCollapse(partition, opt.Recorder.Enabled, func(*Partition) bool { return true })
	perStage := len(e.states)
	if part != nil {
		perStage = part.NumClasses()
	}
	chk := newStageChecker(ctx, deadline, perStage)
	for x := 0; x < execs; x++ {
		err := chk.check()
		if err == nil {
			if part != nil {
				err = e.execCollapsed(s, part, tagBase, opt.ComputeEmpty, chk)
			} else {
				err = e.execStages(s, tagBase, opt.ComputeEmpty, chk)
			}
		}
		if err != nil {
			return e.finish(opt.Recorder, nil, err)
		}
	}
	if part != nil {
		e.replicateClasses(part)
	}
	res := e.result()
	res.Collapse = collapse
	return e.finish(opt.Recorder, res, nil)
}

// stageCheckBudget is the amount of per-rank (or per-class) stage work a
// stageChecker lets pass between context/deadline checks: the stride is
// stageCheckBudget/width stages, at least 1 — so a P=1M execution checks
// every stage while a P=16 sweep checks every few thousand.
const stageCheckBudget = 1 << 17

// stageChecker polls cancellation and the wall-clock deadline every stride
// stages, amortizing the check cost against the evaluation work it guards.
type stageChecker struct {
	ctx      context.Context
	start    time.Time
	deadline time.Duration
	stride   int
	left     int
}

// newStageChecker sizes a checker for stages of the given width (ranks or
// classes evaluated per stage).
func newStageChecker(ctx context.Context, deadline time.Duration, width int) *stageChecker {
	if width < 1 {
		width = 1
	}
	stride := stageCheckBudget / width
	if stride < 1 {
		stride = 1
	}
	return &stageChecker{ctx: ctx, start: time.Now(), deadline: deadline, stride: stride, left: stride}
}

// tick counts one stage and polls every stride stages.
func (c *stageChecker) tick() error {
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
// direct flood assembles each rank's known-contributions map from it without
// moving any payloads.
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
	_, rotated := s.(CirculantSchedule)
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

// ForEach calls fn for every origin reaching rank, in ascending order: the
// bits from P−up on name the lowest origins, so they go first.
func (r *ReachSet) ForEach(rank int, fn func(origin int)) {
	row, up := r.row(rank)
	for _, span := range [2][3]int{{r.p - up, r.p, up - r.p}, {0, r.p - up, up}} { // from bit, before bit, bit → origin
		for w := span[0] / 64; w*64 < span[1]; w++ {
			word := row[w]
			if w == span[0]/64 {
				word &= ^uint64(0) << (uint(span[0]) % 64)
			}
			for ; word != 0 && w*64+bits.TrailingZeros64(word) < span[1]; word &= word - 1 {
				fn(w*64 + bits.TrailingZeros64(word) + span[2])
			}
		}
	}
}
