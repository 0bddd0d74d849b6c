package sched

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"time"

	"hbsp/internal/fault"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

// Sweep evaluation: a parameter sweep (bytes, LogGP scale, run seed)
// evaluates the same schedule structure point after point on machines of one
// family. A SweepEvaluator keeps what the points share — the evaluator arena,
// the fault plan compiled once, and the symmetry-partition decisions — and
// hands every point's run frame that kept arena and the body RunSchedule hands
// it (execRuns), so a point is bit-identical to an independent RunSchedule
// call by construction: every pair is priced live by the machine's Pair call,
// every noise draw and payload size is read from the point's machine and
// schedule.

// SweepOptions configures a SweepEvaluator, which reads it once: ComputeEmpty
// and TagBase become arguments of the schedule body, the other fields the
// simnet.Options every point runs under. The zero value is not RunSchedule's
// convention: RunSchedule pays empty stages (set ComputeEmpty to match it),
// and callers matching simnet.DefaultOptions turn AckSends on.
type SweepOptions struct {
	// AckSends selects acknowledged sends (simnet.Options.AckSends).
	AckSends bool
	// SymmetryCollapse disables collapsed evaluation when CollapseOff.
	SymmetryCollapse simnet.CollapseMode
	// ComputeEmpty pays an empty Compute(0) (one noise draw) on stages where
	// a rank has no edges, barrier.Execute's convention; RunSchedule uses
	// true, the inline gate paths use false.
	ComputeEmpty bool
	// TagBase labels stage s's messages with tag TagBase+s in recorded
	// events; 0 means ScheduleTagBase (RunSchedule's space).
	TagBase int
	// Faults is the sweep's fault plan, compiled once at construction.
	Faults *fault.Plan
	// Recorder, when enabled, records every point as one trace run (a
	// recorder holds one run, so a later point overwrites an earlier one).
	// Recording forces per-rank evaluation (per-rank lanes). A caller tracing
	// some points and not others builds an evaluator for each kind.
	Recorder *trace.Recorder
	// Deadline bounds each point's wall-clock evaluation; 0 means the simnet
	// default.
	Deadline time.Duration
}

// SweepStats counts what a SweepEvaluator reused across the points it
// evaluated so far.
type SweepStats struct {
	// Points is the number of Run calls.
	Points int64
	// PartitionsReused counts points that reused a memoized symmetry
	// partition decision instead of re-deriving it.
	PartitionsReused int64
	// Rebases counts Run calls whose machine was incompatible with the
	// evaluator's current base, dropping all memoized state.
	Rebases int64
	// Deprecated: always zero — the term tape it counted is gone. Kept while
	// benchmark/trace_lib.go:101 reads it into sched.sweep_tapes_reused; it
	// goes once a benchmark-only change drops that counter.
	TapesReused int64
	// Deprecated: always zero — there is no tape memo to size. Kept while
	// benchmark/trace_lib.go:102 reads it into sched.sweep_memo_mb.
	MemoBytes int64
}

// SweepEvaluator evaluates a family of schedule points against compatible
// machines on one kept evaluator arena, memoizing the symmetry-partition
// decisions the points share. Results are bit-identical to independent
// RunSchedule calls with the same options (pinned by the sweep golden
// tests). A SweepEvaluator is not safe for concurrent use — parallel sweeps
// give each worker its own.
type SweepEvaluator struct {
	base simnet.Machine
	opt  simnet.Options // what every point runs under
	e    *Evaluator     // the kept arena; carries the compiled fault plan

	// The schedule body's arguments (SweepOptions.ComputeEmpty and TagBase).
	computeEmpty bool
	tagBase      int

	// parts memoizes collapse decisions per schedule structure: circulant
	// schedules under the hash of their offset sequence (uint64 keys),
	// everything else under the schedule value itself. Entries are O(P), so
	// the memo is bounded by count (sweepMaxParts).
	parts       map[any]sweepPart
	offsScratch []int32
	stats       SweepStats
}

// sweepPart is one memoized collapse decision. offs pins the offset sequence
// a circulant entry was derived for (its key is only the hash); the rank
// count is the evaluator's, fixed between rebases.
type sweepPart struct {
	offs []int32
	part *Partition
	info simnet.Collapse
}

// sweepMaxParts bounds the partition memo (entries are O(P)).
const sweepMaxParts = 64

// NewSweepEvaluator returns a sweep evaluator over the machine, compiling
// the options' fault plan once. Release returns the arena when done.
func NewSweepEvaluator(m simnet.Machine, opt SweepOptions) (*SweepEvaluator, error) {
	if err := checkMachine(m); err != nil {
		return nil, err
	}
	sw := &SweepEvaluator{base: m, computeEmpty: opt.ComputeEmpty, tagBase: opt.TagBase,
		opt: simnet.Options{AckSends: opt.AckSends, SymmetryCollapse: opt.SymmetryCollapse, Faults: opt.Faults, Recorder: opt.Recorder, Deadline: opt.Deadline}}
	if sw.tagBase == 0 {
		sw.tagBase = ScheduleTagBase
	}
	var err error
	if sw.e, err = arenaFor(m, &sw.opt); err != nil {
		return nil, err
	}
	return sw, nil
}

// Release returns the evaluator arena to the shared pool and drops all
// memoized state. The SweepEvaluator must not be used afterwards.
func (sw *SweepEvaluator) Release() {
	if sw.e != nil {
		sw.e.Release()
		sw.e = nil
	}
	sw.parts = nil
}

// Stats returns the reuse counters accumulated so far.
func (sw *SweepEvaluator) Stats() SweepStats { return sw.stats }

// Run evaluates execs consecutive executions of the schedule on machine m
// (nil m means the evaluator's base machine) from zeroed rank states, the
// sweep-point counterpart of one RunSchedule call. The result — per-rank
// times, makespan, traffic, collapse diagnostic and recorded trace events —
// is bit-identical to RunSchedule(ctx, m, s, execs, o) with matching
// options. Machines of the base's family (the base itself, or one its
// TermCompatible accepts: same placement, classes and heterogeneity stream;
// link columns and run seed may differ) share the memoized partitions; any
// other machine rebases the evaluator onto it, dropping them.
func (sw *SweepEvaluator) Run(ctx context.Context, m simnet.Machine, s Schedule, execs int) (*simnet.Result, error) {
	if sw.e == nil {
		return nil, errors.New("sched: sweep evaluator released")
	}
	if m == nil {
		m = sw.base
	}
	if err := checkSchedule(s, execs); err != nil {
		return nil, err
	}
	return run(ctx, m, s.NumProcs(), &sw.opt, sw, func(e *Evaluator, chk *stageChecker) (simnet.Collapse, error) {
		return e.execRuns(s, execs, sw.tagBase, sw.computeEmpty, sw.opt.Recorder, chk, func() (*Partition, simnet.Collapse) { return sw.partitionFor(m, s) })
	})
}

// arena is the run frame's arena for a point on m: the kept one, cleared for
// a fresh run (clearRun) and pointed at m. A machine outside the
// base's family — a different profile family, placement or rank count — first
// rebases the evaluator onto a fresh arena with the fault plan recompiled
// against m, and no memoized decision kept. A plan that no longer compiles
// (rank-targeted rules out of range) fails the point rather than silently
// degrading to fault-free.
func (sw *SweepEvaluator) arena(m simnet.Machine) (*Evaluator, error) {
	sw.stats.Points++
	if !sw.sameFamily(m) {
		e, err := arenaFor(m, &sw.opt)
		if err != nil {
			return nil, err
		}
		sw.stats.Rebases++
		sw.e.Release()
		sw.base, sw.e, sw.parts = m, e, nil
	}
	e := sw.e
	e.clearRun()
	e.setMachine(m)
	return e, nil
}

// sameFamily reports whether m may share the base's memoized partitions: a
// machine the base's TermCompatible accepts, or the base itself.
func (sw *SweepEvaluator) sameFamily(m simnet.Machine) bool {
	if fam, ok := sw.base.(interface{ TermCompatible(o any) bool }); ok && fam.TermCompatible(m) {
		return true
	}
	return m == sw.base
}

// partitionFor memoizes the collapse decision per schedule structure:
// circulant schedules by their offset sequence (per-stage-uniform payload
// sizes cannot split rank classes, so the partition and its diagnostic are
// invariants of the offsets), everything else by the schedule value itself
// (sizes included). Machines within one compatibility family share distance
// classes and homogeneity, so the decision carries across points.
func (sw *SweepEvaluator) partitionFor(m simnet.Machine, s Schedule) (*Partition, simnet.Collapse) {
	var key any = s
	var offs []int32
	if cs, ok := s.(CirculantSchedule); ok {
		key, offs = circStructure(cs, sw.offsScratch[:0])
		sw.offsScratch = offs[:0]
	} else if !reflect.TypeOf(s).Comparable() {
		return collapseClassesWith(m, s, sw.e.env.Faults)
	}
	if pm, ok := sw.parts[key]; ok && slices.Equal(pm.offs, offs) {
		sw.stats.PartitionsReused++
		return pm.part, pm.info
	}
	part, info := collapseClassesWith(m, s, sw.e.env.Faults)
	if sw.parts == nil {
		sw.parts = make(map[any]sweepPart)
	}
	if len(sw.parts) >= sweepMaxParts {
		// Reuse, not correctness, is at stake: drop an arbitrary entry.
		for k := range sw.parts {
			delete(sw.parts, k)
			break
		}
	}
	sw.parts[key] = sweepPart{offs: slices.Clone(offs), part: part, info: info}
	return part, info
}

// circStructure hashes a circulant schedule's offset sequence (FNV-1a) and
// returns the offsets; scratch is reused across calls.
func circStructure(cs CirculantSchedule, scratch []int32) (uint64, []int32) {
	offs := scratch
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for k, n := 0, cs.NumStages(); k < n; k++ {
		off, _ := cs.CirculantStage(k)
		offs = append(offs, int32(off))
		mix(uint64(off) + 0x9e3779b9)
	}
	return h, offs
}
