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
// the fault plan compiled once, the symmetry-partition decisions and the
// pair terms of circulant stages — and hands every point's run frame that
// kept arena and the body RunSchedule hands it (execRuns), so a point is
// bit-identical to an independent RunSchedule call by construction. From a
// family's second point on, a circulant edge is priced from its offset's term
// row (termRows: the factor and class PairTerm returns, kept per offset)
// under the point's own link columns through the machine's PriceTerm, the
// multiplication Pair performs; the first point, every other edge, and a
// schedule whose rows would pass sweepTermBytes are priced live by the
// machine's Pair call. Every noise draw and payload size is read from the
// point's machine and schedule.

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
	// true, the schedule floods and the BSP count exchange use false.
	ComputeEmpty bool
	// TagBase labels stage s's messages with tag TagBase+s in recorded
	// events; 0 means ScheduleTagBase (RunSchedule's space).
	TagBase int
	// Faults is the sweep's fault plan, compiled once at construction.
	Faults *fault.Plan
	// Recorder, when enabled, records every point Run evaluates as one trace
	// run (a recorder holds one run, so a later point overwrites an earlier
	// one). Recording forces per-rank evaluation (per-rank lanes). A caller
	// tracing some points and not others hands each point its own recorder,
	// or none, through RunPoint, on the one evaluator.
	Recorder *trace.Recorder
	// Deadline bounds each point's wall-clock evaluation under Run; 0 means
	// the simnet default. RunPoint takes a point's own.
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
	// MemoBytes is the size of the term rows kept (16 bytes a pair), at most
	// sweepTermBytes.
	MemoBytes int64
}

// SweepEvaluator evaluates a family of schedule points against compatible
// machines on one kept evaluator arena, memoizing the symmetry-partition
// decisions and the circulant pair terms the points share. Results are
// bit-identical to independent RunSchedule calls with the same options
// (pinned by the sweep golden tests). A SweepEvaluator is not safe for
// concurrent use — parallel sweeps give each worker its own.
type SweepEvaluator struct {
	base simnet.Machine // the latest point's machine: the family's representative
	opt  simnet.Options // what every point runs under
	e    *Evaluator     // the kept arena; carries the compiled fault plan

	// The schedule body's arguments (SweepOptions.ComputeEmpty and TagBase).
	computeEmpty bool
	tagBase      int

	// parts memoizes collapse decisions per schedule structure: circulant
	// schedules under the hash of their offset sequence (uint64 keys),
	// everything else under the schedule value itself. Entries are O(P), so
	// the memo is bounded by count (sweepMaxParts).
	parts map[any]sweepPart

	// family counts the points run on the base's family since the
	// evaluator last (re)based; terms are its term rows, read from the
	// family's second point on.
	family int64
	terms  termRows
	stats  SweepStats
}

// sweepPart is one memoized collapse decision. offs pins the offset sequence
// a circulant entry was derived for (its key is only the hash; the slice is
// the immutable circulant's own); the rank count is the evaluator's, fixed
// between rebases.
type sweepPart struct {
	offs []int
	part *Partition
	info simnet.Collapse
}

// sweepMaxParts bounds the partition memo (entries are O(P)).
const sweepMaxParts = 64

// sweepTermBytes bounds a SweepEvaluator's term rows: 1 MiB, 65,536 pair
// terms — a P = 64 total exchange's 63 rows sixteen times over, while the
// P = 1,024 total exchange's 1,023 (16 MiB) is priced live.
const sweepTermBytes = 1 << 20

// termBytes is the size of one pairTerm.
const termBytes = 16

// pairTerm is one pair's PairTerm: its heterogeneity factor and distance class.
type pairTerm struct {
	factor float64
	class  uint8
}

// termMachine is a machine whose price of a pair is PriceTerm of its
// PairTerm, as platform.Machine's Pair is.
type termMachine interface {
	PairTerm(i, j int) (factor float64, class uint8)
	PriceTerm(factor float64, class uint8) (lat, gap, beta, ovh, ret float64, sameNIC bool)
}

// termRows is a SweepEvaluator's memo of circulant pair terms for one
// machine family: the row of offset off holds PairTerm(r, r+off mod P) for
// every rank r. A family's machines (TermCompatible) classify and weight
// every pair alike, so a row built on one point prices the edges of every
// later one under that point's link columns (PriceTerm). The stage walker
// builds a row the first time it walks a stage of that offset (next).
type termRows struct {
	m    termMachine // the running point's machine; nil: no rows this point
	rows map[int][]pairTerm
	n    int   // pair terms held, at most sweepTermBytes/termBytes
	offs []int // admit's scratch
}

// admit reports whether the running point's schedule s over p ranks is
// priced from rows: a circulant schedule whose rows fit the bound, made room
// for by dropping every kept row when they would not fit beside them.
// Reuse, not correctness, is at stake. Any other schedule is priced live.
func (t *termRows) admit(s Schedule, p int) bool {
	cs, ok := AsCirculant(s)
	if !ok {
		return false
	}
	t.offs = t.offs[:0]
	for _, off := range cs.offsets {
		if off != 0 {
			t.offs = append(t.offs, off)
		}
	}
	slices.Sort(t.offs)
	t.offs = slices.Compact(t.offs)
	const bound = sweepTermBytes / termBytes
	if len(t.offs)*p > bound {
		return false
	}
	need := 0
	for _, off := range t.offs {
		if _, ok := t.rows[off]; !ok {
			need += p
		}
	}
	if t.n+need > bound {
		clear(t.rows)
		t.n = 0
	}
	return true
}

// row returns the term row of offset off over p ranks, building it on first
// use; admit has made room for it.
func (t *termRows) row(off, p int) []pairTerm {
	if row, ok := t.rows[off]; ok {
		return row
	}
	row := make([]pairTerm, p)
	for r := range row {
		dst := r + off
		if dst >= p {
			dst -= p
		}
		row[r].factor, row[r].class = t.m.PairTerm(r, dst)
	}
	if t.rows == nil {
		t.rows = make(map[int][]pairTerm)
	}
	t.rows[off], t.n = row, t.n+p
	return row
}

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
	sw.base, sw.parts, sw.terms = nil, nil, termRows{}
}

// Stats returns the reuse counters accumulated so far and the size of the
// term rows kept.
func (sw *SweepEvaluator) Stats() SweepStats {
	st := sw.stats
	st.MemoBytes = int64(sw.terms.n) * termBytes
	return st
}

// Run evaluates execs consecutive executions of the schedule on machine m
// (nil m means the machine of the evaluator's latest point, at first the one
// it was built over) from zeroed rank states, the sweep-point counterpart of
// one RunSchedule call, under the options' recorder and deadline. The result
// — per-rank times, makespan, traffic, collapse diagnostic and recorded
// trace events — is bit-identical to RunSchedule(ctx, m, s, execs, o) with
// matching options. Machines of the base's family (the base itself, or one
// its TermCompatible accepts: same placement, classes and heterogeneity
// stream; link columns and run seed may differ) share the memoized
// partitions and term rows; any other machine rebases the evaluator onto it,
// dropping them.
func (sw *SweepEvaluator) Run(ctx context.Context, m simnet.Machine, s Schedule, execs int) (*simnet.Result, error) {
	return sw.RunPoint(ctx, m, s, execs, sw.opt.Recorder, sw.opt.Deadline)
}

// RunPoint is Run with the point's own recorder (nil: untraced) and
// wall-clock deadline (0: the simnet default) in place of the options', so
// that traced and untraced points, each under the budget it has left, run on
// one evaluator. The evaluator keeps neither past the point.
func (sw *SweepEvaluator) RunPoint(ctx context.Context, m simnet.Machine, s Schedule, execs int, rec *trace.Recorder, deadline time.Duration) (*simnet.Result, error) {
	if sw.e == nil {
		return nil, errors.New("sched: sweep evaluator released")
	}
	if m == nil {
		m = sw.base
	}
	if err := checkSchedule(s, execs); err != nil {
		return nil, err
	}
	o := sw.opt
	o.Recorder, o.Deadline = rec, deadline
	return run(ctx, m, s.NumProcs(), &o, sw, func(e *Evaluator, chk *stageChecker) (simnet.Collapse, error) {
		return e.execRuns(s, execs, sw.tagBase, sw.computeEmpty, rec, chk, func() (*Partition, simnet.Collapse) { return sw.partitionFor(m, s) })
	})
}

// arena is the run frame's arena for a point on m: the kept one, cleared for
// a fresh run (clearRun), pointed at m and, from the family's second point
// on, at the term rows. A machine outside the base's family — a different
// profile family, placement or rank count — first rebases the evaluator onto
// a fresh arena with the fault plan recompiled against m, and no memoized
// decision or row kept. A plan that no longer compiles (rank-targeted rules
// out of range) fails the point rather than silently degrading to
// fault-free. Within the family a plan is recompiled against a new machine
// too, so that the evaluator holds no machine but the latest point's.
func (sw *SweepEvaluator) arena(m simnet.Machine) (*Evaluator, error) {
	sw.stats.Points++
	same, terms := sw.sameFamily(m)
	switch {
	case !same:
		e, err := arenaFor(m, &sw.opt)
		if err != nil {
			return nil, err
		}
		sw.stats.Rebases++
		sw.e.Release()
		sw.e, sw.parts, sw.family, sw.terms = e, nil, 0, termRows{}
	case m != sw.base && !sw.opt.Faults.Empty():
		ft, err := simnet.CompileFaults(sw.opt.Faults, m)
		if err != nil {
			return nil, err
		}
		sw.e.env.Faults = ft
	}
	sw.base = m
	sw.family++
	e := sw.e
	e.clearRun()
	e.setMachine(m)
	sw.terms.m = nil
	if tm, ok := m.(termMachine); ok && terms && sw.family > 1 {
		sw.terms.m, e.terms = tm, &sw.terms
	}
	return e, nil
}

// sameFamily reports whether m may share the base's memoized state — a
// machine the base's TermCompatible accepts, or the base itself — and
// whether TermCompatible accepted it, which term rows also need: a machine
// that is its own family may price pairs otherwise than its PairTerm says.
func (sw *SweepEvaluator) sameFamily(m simnet.Machine) (same, terms bool) {
	if fam, ok := sw.base.(interface{ TermCompatible(o any) bool }); ok && fam.TermCompatible(m) {
		return true, true
	}
	return m == sw.base, false
}

// partitionFor memoizes the collapse decision per schedule structure:
// circulant schedules by their offset sequence (per-stage-uniform payload
// sizes cannot split rank classes, so the partition and its diagnostic are
// invariants of the offsets), everything else by the schedule value itself
// (sizes included), a wrapper by the schedule it wraps. Machines within one compatibility family share distance
// classes and homogeneity, so the decision carries across points.
func (sw *SweepEvaluator) partitionFor(m simnet.Machine, s Schedule) (*Partition, simnet.Collapse) {
	var key any = unwrap(s)
	var offs []int
	if c, ok := key.(*Circulant); ok {
		key, offs = offsetsHash(c.offsets), c.offsets
	} else if !reflect.TypeOf(key).Comparable() {
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
	sw.parts[key] = sweepPart{offs: offs, part: part, info: info}
	return part, info
}

// offsetsHash hashes a circulant's offset sequence (FNV-1a).
func offsetsHash(offs []int) uint64 {
	h := uint64(1469598103934665603)
	for _, off := range offs {
		h ^= uint64(off) + 0x9e3779b9
		h *= 1099511628211
	}
	return h
}
