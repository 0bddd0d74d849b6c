package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"

	"hbsp/internal/fault"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
	"time"
)

// Incremental sweep evaluation: a parameter sweep (bytes, LogGP scale, run
// seed) evaluates the same schedule structure point after point, and on a
// profile-backed machine every pairwise parameter factors into
//
//	param(i, j) = column[class(i, j)] * factor(i, j)
//
// where the column depends only on the distance class (and is what a LogGP
// scale sweep moves) while the factor — the deterministic per-pair
// heterogeneity — is an invariant of the sweep (TermMachine.PairTerm). The
// SweepEvaluator records the (factor, class) term of every edge of one
// execution into a tape on first evaluation and replays it for the remaining
// points: replay re-prices each edge with four multiplications against the
// point's columns instead of re-deriving placement distances, per-pair
// hashes and link-table lookups, which is where a per-rank P=4096 evaluation
// spends most of its time. Payload sizes and noise draws are read live from
// the point's schedule and machine, so a bytes-axis point re-prices message
// terms over the cached structure and the results stay bit-identical to an
// independent RunSchedule call — the same grouping of the same float64
// operands in the same order.
//
// On top of the tape, circulant schedules get dirty-stage propagation: the
// evaluator snapshots per-stage payload sizes, the columns and checkpointed
// rank states from the previous point, locates the first stage a new point
// actually changes, and resumes from the latest checkpoint at or before it.
// A point that changes nothing is a pure replay of the cached result.
//
// Symmetry-collapsed evaluation composes: when the (memoized) partition
// applies, the collapsed executor is already O(classes·stages) and runs
// live — only the partition decision itself is reused across points.

// TermMachine is the optional machine capability the sweep evaluator's term
// tape requires: a multiplicative (factor, class) decomposition of the
// pairwise parameters (platform.Machine implements it from its profile and
// placement). The contract is exact: for every pair, column[class]*factor
// must reproduce the machine's Pair call bit for bit, and both factor and
// class must be invariants of every machine TermCompatible accepts and
// symmetric in the pair — the return latency an acknowledged send bills is
// then the forward latency, which is what a replayed term prices.
type TermMachine interface {
	simnet.Machine
	// PairTerm returns the pair's heterogeneity factor and distance class.
	PairTerm(i, j int) (factor float64, class uint8)
	// TermLinks returns the per-class parameter columns, indexed by class.
	TermLinks() (lat, gap, beta, ovh []float64)
	// TermCompatible reports whether o shares this machine's decomposition
	// (same placement, classes, NICs and heterogeneity stream; columns and
	// run seed may differ).
	TermCompatible(o any) bool
	// NoiseFree reports whether the noise stream is identically 1.
	NoiseFree() bool
}

// DefaultSweepMemoBudget bounds the memoized term tapes (and their stage
// snapshots) of one SweepEvaluator: 256 MiB, comfortably above one P=4096
// total-exchange tape, far below a long-lived daemon's memory.
const DefaultSweepMemoBudget = 256 << 20

// sweepTapeClasses is the width of the tape's class space: classes are uint8
// column indexes, and the dirty-stage masks track the first eight. A machine
// reporting a class beyond the columns disables taping (no such machine
// exists today — topology has five distance classes).
const sweepTapeClasses = 8

// SweepOptions configures a SweepEvaluator. The zero value matches
// RunSchedule's defaults (no acks, collapse auto, computeEmpty false — set
// ComputeEmpty to mirror RunSchedule's barrier.Execute convention; leave it
// false to mirror the mpi flood and BSP count-exchange convention).
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
	// Recorder, when enabled, records every point as one trace run. Recording
	// forces per-rank evaluation and disables result/prefix reuse (per-rank
	// lanes cannot be replayed), but term tapes still apply.
	Recorder *trace.Recorder
	// Deadline bounds each point's wall-clock evaluation; 0 means the simnet
	// default.
	Deadline time.Duration
	// MemoBudget bounds the memoized term tapes in bytes: 0 means
	// DefaultSweepMemoBudget, negative disables taping entirely (every point
	// is priced live by the machine's Pair call, nothing is cached).
	MemoBudget int64
}

// SweepStats counts what a SweepEvaluator reused across the points it
// evaluated so far.
type SweepStats struct {
	// Points is the number of Run calls.
	Points int64
	// PointsReused counts points answered entirely from the cached result of
	// an equivalent earlier point (pure replay: no stage was re-evaluated).
	PointsReused int64
	// PartitionsReused counts points that reused a memoized symmetry
	// partition decision instead of re-deriving it.
	PartitionsReused int64
	// TapesBuilt / TapesReused / TapesEvicted count term-tape lifecycle
	// events; a reused tape evaluates a point without any pair-parameter
	// derivation.
	TapesBuilt   int64
	TapesReused  int64
	TapesEvicted int64
	// PrefixStagesSkipped counts stages skipped by dirty-stage propagation
	// (restored from a checkpoint instead of re-evaluated).
	PrefixStagesSkipped int64
	// Rebases counts Run calls whose machine was incompatible with the
	// evaluator's current base, dropping all memoized state.
	Rebases int64
	// MemoBytes is the current size of the memoized tapes.
	MemoBytes int64
}

// sweepCkpt is one rank-state checkpoint inside execution 0 of a taped
// point: the complete evaluator state after stages [0, stage).
type sweepCkpt struct {
	valid    bool
	stage    int
	messages int64
	bytes    int64
	states   []rankState
}

// sweepCkptSlots is the number of evenly spaced checkpoints kept per tape.
const sweepCkptSlots = 8

// sweepTape is one memoized schedule structure: the (factor, class) term of
// every edge of one execution in evaluation order, per-stage cursors and
// class masks, and — for dirty-stage propagation — the previous point's
// sizes, columns, noise key, checkpoints and result.
type sweepTape struct {
	key           uint64
	offs          []int32  // circulant stage offsets; nil for generic entries
	sched         Schedule // generic entries: the schedule value (structure verification anchor)
	procs, stages int
	built         bool

	factors    []float64
	classes    []uint8
	srcs, dsts []int32 // generic entries: exact per-edge structure verification
	stageOff   []int64 // len stages+1: tape cursor at each stage boundary
	mask       []uint8 // per stage: bitmask of classes used
	overflow   bool    // a class beyond the mask width appeared: no delta analysis

	// Previous-point snapshot (dirty-stage delta and pure replay).
	lastValid  bool
	lastSizes  []int32 // circulant: per-stage payload size
	lastESizes []int32 // generic: per-edge payload size, tape order
	lastCols   [4][]float64
	lastSeed   int64
	lastFree   bool
	lastExecs  int
	lastRes    *simnet.Result
	ckpts      []sweepCkpt

	bytes   int64
	lastUse int64
}

// SweepEvaluator evaluates a family of schedule points against compatible
// machines, reusing everything the points share: the evaluator arena, the
// symmetry-partition decisions, and the per-edge term tapes. Results are
// bit-identical to independent RunSchedule calls with the same options
// (pinned by the sweep golden tests). A SweepEvaluator is not safe for
// concurrent use — parallel sweeps give each worker its own.
type SweepEvaluator struct {
	base simnet.Machine
	tm   TermMachine
	opt  SweepOptions
	ft   *fault.Runtime
	e    *Evaluator

	// Current-point term state (loaded per Run on the term path).
	lat, gap, beta, ovh []float64
	nic                 []int32
	curSeed             int64
	curFree             bool
	noiseKnown          bool

	budget  int64
	useTick int64
	circ    map[uint64]*sweepTape
	gen     map[Schedule]*sweepTape

	// Memoized partition decisions (partitions are cheap to hold — O(P) —
	// so they are bounded by count, not folded into the byte budget).
	circParts map[uint64]*sweepPart
	genParts  map[Schedule]*sweepPart

	sizesScratch []int32
	stats        SweepStats
}

// sweepPart is one memoized collapse decision, keyed like tapes.
type sweepPart struct {
	offs  []int32
	procs int
	part  *Partition
	info  simnet.Collapse
}

// sweepMaxParts bounds the partition memo (entries are O(P)).
const sweepMaxParts = 64

// NewSweepEvaluator returns a sweep evaluator over the machine, compiling
// the options' fault plan once. Release returns the arena when done.
func NewSweepEvaluator(m simnet.Machine, opt SweepOptions) (*SweepEvaluator, error) {
	if m == nil || m.Procs() < 1 {
		return nil, errors.New("sched: machine with at least one rank required")
	}
	if opt.Deadline <= 0 {
		opt.Deadline = simnet.DefaultOptions().Deadline
	}
	if opt.TagBase == 0 {
		opt.TagBase = ScheduleTagBase
	}
	budget := opt.MemoBudget
	if budget == 0 {
		budget = DefaultSweepMemoBudget
	}
	if budget < 0 {
		budget = 0
	}
	ft, err := compileFaults(opt.Faults, m)
	if err != nil {
		return nil, err
	}
	sw := &SweepEvaluator{opt: opt, ft: ft, budget: budget}
	sw.adopt(m)
	return sw, nil
}

// adopt points the evaluator at a new base machine: (re)build the arena, the
// NIC cache and the term capability binding. Memoized state must already be
// consistent with the machine (cleared on rebase).
func (sw *SweepEvaluator) adopt(m simnet.Machine) {
	if sw.e != nil {
		sw.e.Release()
	}
	sw.base = m
	sw.e = NewEvaluator(m, sw.opt.AckSends)
	sw.e.collapseOff = sw.opt.SymmetryCollapse == simnet.CollapseOff
	sw.e.ft = sw.ft
	sw.tm = nil
	sw.nic = nil
	if tm, ok := m.(TermMachine); ok {
		sw.tm = tm
		sw.nic = make([]int32, m.Procs())
		for i := range sw.nic {
			sw.nic[i] = int32(m.NIC(i))
		}
	}
}

// Release returns the evaluator arena to the shared pool and drops all
// memoized state. The SweepEvaluator must not be used afterwards.
func (sw *SweepEvaluator) Release() {
	if sw.e != nil {
		sw.e.Release()
		sw.e = nil
	}
	sw.circ, sw.gen, sw.circParts, sw.genParts = nil, nil, nil, nil
	sw.stats.MemoBytes = 0
}

// SetDeadline changes the wall-clock bound of subsequent points (0 restores
// the simnet default). The deadline only bounds evaluation time — it never
// affects a point's result — so callers serving per-request budgets may
// adjust it between points without invalidating any memoized state.
func (sw *SweepEvaluator) SetDeadline(d time.Duration) {
	if d <= 0 {
		d = simnet.DefaultOptions().Deadline
	}
	sw.opt.Deadline = d
}

// Stats returns the reuse counters accumulated so far.
func (sw *SweepEvaluator) Stats() SweepStats {
	s := sw.stats
	s.MemoBytes = sw.memoBytes()
	return s
}

func (sw *SweepEvaluator) memoBytes() int64 {
	var n int64
	for _, t := range sw.circ {
		n += t.bytes
	}
	for _, t := range sw.gen {
		n += t.bytes
	}
	return n
}

// Run evaluates execs consecutive executions of the schedule on machine m
// (nil m means the evaluator's base machine) from zeroed rank states, the
// sweep-point counterpart of one RunSchedule call. The result — per-rank
// times, makespan, traffic, collapse diagnostic and recorded trace events —
// is bit-identical to RunSchedule(ctx, m, s, execs, o) with matching
// options. Machines compatible with the base (TermCompatible, or the base
// itself) reuse the memoized structure; an incompatible machine rebases the
// evaluator onto it, dropping all memoized state.
func (sw *SweepEvaluator) Run(ctx context.Context, m simnet.Machine, s Schedule, execs int) (*simnet.Result, error) {
	if sw.e == nil {
		return nil, errors.New("sched: sweep evaluator released")
	}
	if m == nil {
		m = sw.base
	}
	if m.Procs() < 1 {
		return nil, errors.New("sched: machine with at least one rank required")
	}
	if s == nil {
		return nil, errors.New("sched: nil schedule")
	}
	if s.NumProcs() != m.Procs() {
		return nil, fmt.Errorf("sched: schedule for %d ranks on a %d-rank machine", s.NumProcs(), m.Procs())
	}
	if execs < 1 {
		return nil, fmt.Errorf("sched: %d executions requested", execs)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sw.stats.Points++

	term := false
	switch {
	case sw.tm != nil && sw.tm.TermCompatible(m):
		term = true
	case m == sw.base:
	default:
		if err := sw.rebase(m); err != nil {
			return nil, err
		}
		term = sw.tm != nil
	}

	// Arena reset: zero states and counters in place, point at the machine.
	e := sw.e
	for i := range e.states {
		e.states[i] = rankState{}
	}
	e.messages, e.bytes = 0, 0
	e.setMachine(m)
	traced := sw.opt.Recorder.Enabled()
	beginRecording(sw.opt.Recorder, m, sw.opt.AckSends, e)

	// Partition decision, mirroring RunSchedule's switch; the default branch
	// is memoized across points.
	var part *Partition
	var collapse simnet.Collapse
	switch {
	case e.collapseOff:
		collapse = simnet.Collapse{Reason: simnet.CollapseReasonOff}
	case traced:
		collapse = simnet.Collapse{Reason: simnet.CollapseReasonTrace}
	default:
		part, collapse = sw.partitionFor(m, s)
	}
	e.lastCollapse = collapse

	perStage := m.Procs()
	var tape *sweepTape
	if part != nil {
		perStage = part.NumClasses()
	} else if term {
		tape = sw.lookupTape(s)
	}
	chk := newStageChecker(ctx, sw.opt.Deadline, perStage)

	var res *simnet.Result
	var err error
	switch {
	case part != nil:
		// Collapsed evaluation is already O(classes·stages); run it live.
		for x := 0; x < execs; x++ {
			if err = chk.check(); err == nil {
				err = e.execCollapsed(s, part, sw.opt.TagBase, sw.opt.ComputeEmpty, chk)
			}
			if err != nil {
				break
			}
		}
		if err == nil {
			e.ReplicateClasses(part)
		}
	case tape != nil:
		sw.loadTerms(m)
		res, err = sw.runTaped(tape, s, execs, chk, traced)
	default:
		// Priced live by the machine's Pair call: machines without a term
		// decomposition, and points whose tape the budget does not admit.
		for x := 0; x < execs; x++ {
			if err = chk.check(); err == nil {
				err = e.execSchedule(s, sw.opt.TagBase, sw.opt.ComputeEmpty, chk)
			}
			if err != nil {
				break
			}
		}
	}
	if err != nil {
		endRecording(sw.opt.Recorder, nil, e.messages, e.bytes, err)
		return nil, err
	}
	if res == nil {
		res = e.result()
		res.Messages, res.Bytes = e.messages, e.bytes
		res.Collapse = collapse
	}
	endRecording(sw.opt.Recorder, res, res.Messages, res.Bytes, nil)
	return res, nil
}

// rebase drops every memoized structure and adopts the machine as the new
// base (a different profile family, placement or rank count). The fault plan
// is recompiled against the new machine; a plan that no longer compiles
// (rank-targeted rules out of range) fails the point rather than silently
// degrading to fault-free.
func (sw *SweepEvaluator) rebase(m simnet.Machine) error {
	ft, err := compileFaults(sw.opt.Faults, m)
	if err != nil {
		return err
	}
	sw.stats.Rebases++
	sw.circ, sw.gen, sw.circParts, sw.genParts = nil, nil, nil, nil
	sw.ft = ft
	sw.adopt(m)
	return nil
}

// loadTerms loads the point machine's link columns and noise identity.
func (sw *SweepEvaluator) loadTerms(m simnet.Machine) {
	tm := m.(TermMachine)
	sw.lat, sw.gap, sw.beta, sw.ovh = tm.TermLinks()
	sw.curFree = tm.NoiseFree()
	sw.curSeed = 0
	sw.noiseKnown = true
	if !sw.curFree {
		if rs, ok := m.(interface{ RunSeed() int64 }); ok {
			sw.curSeed = rs.RunSeed()
		} else {
			sw.noiseKnown = false
		}
	}
}

// partitionFor memoizes the collapse decision per schedule structure:
// circulant schedules by their offset sequence (per-stage-uniform payload
// sizes cannot split rank classes, so the partition and its diagnostic are
// invariants of the offsets), everything else by the schedule value itself
// (sizes included). Machines within one compatibility family share distance
// classes and homogeneity, so the decision carries across points.
func (sw *SweepEvaluator) partitionFor(m simnet.Machine, s Schedule) (*Partition, simnet.Collapse) {
	if cs, ok := s.(CirculantSchedule); ok {
		key, offs := circStructure(cs, sw.sizesScratch[:0])
		sw.sizesScratch = offs[:0]
		if pm, ok := sw.circParts[key]; ok && pm.procs == s.NumProcs() && int32sEqual(pm.offs, offs) {
			sw.stats.PartitionsReused++
			return pm.part, pm.info
		}
		part, info := CollapseClassesWith(m, s, sw.ft)
		if sw.circParts == nil {
			sw.circParts = make(map[uint64]*sweepPart)
		}
		sw.boundParts()
		sw.circParts[key] = &sweepPart{offs: append([]int32(nil), offs...), procs: s.NumProcs(), part: part, info: info}
		return part, info
	}
	if !reflect.TypeOf(s).Comparable() {
		return CollapseClassesWith(m, s, sw.ft)
	}
	if pm, ok := sw.genParts[s]; ok {
		sw.stats.PartitionsReused++
		return pm.part, pm.info
	}
	part, info := CollapseClassesWith(m, s, sw.ft)
	if sw.genParts == nil {
		sw.genParts = make(map[Schedule]*sweepPart)
	}
	sw.boundParts()
	sw.genParts[s] = &sweepPart{part: part, info: info}
	return part, info
}

// boundParts keeps the partition memo under sweepMaxParts entries by
// dropping an arbitrary one (reuse, not correctness, is at stake).
func (sw *SweepEvaluator) boundParts() {
	if len(sw.circParts)+len(sw.genParts) < sweepMaxParts {
		return
	}
	for k := range sw.circParts {
		delete(sw.circParts, k)
		return
	}
	for k := range sw.genParts {
		delete(sw.genParts, k)
		return
	}
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
	mix(uint64(cs.NumProcs()))
	for k, n := 0, cs.NumStages(); k < n; k++ {
		off, _ := cs.CirculantStage(k)
		offs = append(offs, int32(off))
		mix(uint64(off) + 0x9e3779b9)
	}
	return h, offs
}

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runTaped evaluates a per-rank point through its memoized tape, building it
// on first sight. Returns a non-nil result only on a pure replay (the caller
// otherwise assembles it from the evaluator).
func (sw *SweepEvaluator) runTaped(t *sweepTape, s Schedule, execs int, chk *stageChecker, traced bool) (*simnet.Result, error) {
	if err := chk.check(); err != nil {
		return nil, err
	}
	cs, isCirc := s.(CirculantSchedule)
	startStage := 0
	if t.built {
		sw.stats.TapesReused++
		firstDirty := 0
		sizesOK := false
		if t.lastValid && !traced && !t.overflow && sw.noiseCompatible(t) {
			if isCirc {
				firstDirty, sizesOK = sw.firstDirtyStage(t, cs)
			} else {
				// Generic: the tape's structure was verified against the live
				// schedule at lookup, so equal sizes and columns change
				// nothing.
				if !sw.colsChanged(t, 0xff, true) && genericSizesEqual(t, s) {
					firstDirty, sizesOK = t.stages, true
				}
			}
		}
		if firstDirty >= t.stages && sizesOK && execs == t.lastExecs && t.lastRes != nil {
			sw.stats.PointsReused++
			sw.touch(t)
			return copySweepResult(t.lastRes), nil
		}
		if isCirc && !traced {
			if ck := bestCkpt(t, firstDirty); ck != nil {
				e := sw.e
				copy(e.states, ck.states)
				e.messages, e.bytes = ck.messages, ck.bytes
				startStage = ck.stage
				sw.stats.PrefixStagesSkipped += int64(ck.stage)
				// Checkpoints past the resume point were taken for the
				// previous point's suffix; they are refreshed below.
				for i := range t.ckpts {
					if t.ckpts[i].stage > ck.stage {
						t.ckpts[i].valid = false
					}
				}
			}
		}
	} else {
		sw.stats.TapesBuilt++
	}
	t.lastValid = false // invalidated until this point completes cleanly

	tc := tapeCursor{sw: sw, t: t, build: !t.built}
	if isCirc && !traced {
		tc.ck = newCkptTaker(t, startStage)
	}
	if tc.build {
		// An earlier build attempt may have aborted mid-point; start clean.
		t.factors, t.classes = t.factors[:0], t.classes[:0]
		t.srcs, t.dsts = t.srcs[:0], t.dsts[:0]
		t.stageOff, t.mask = t.stageOff[:0], t.mask[:0]
		t.overflow = false
	}
	e := sw.e
	if err := e.execStages(s, startStage, sw.opt.TagBase, sw.opt.ComputeEmpty, chk, &tc); err != nil {
		return nil, err
	}
	if tc.build {
		t.built = true
		t.accounted(sw)
	}
	for x := 1; x < execs; x++ {
		if err := chk.check(); err != nil {
			return nil, err
		}
		if err := e.execStages(s, 0, sw.opt.TagBase, sw.opt.ComputeEmpty, chk, &tapeCursor{sw: sw, t: t}); err != nil {
			return nil, err
		}
	}
	sw.snapshot(t, s, execs, traced)
	sw.touch(t)
	return nil, nil
}

// noiseCompatible reports whether the current point consumes the same noise
// stream the tape's snapshot did (a prefix of identical operations then
// draws identical jitter).
func (sw *SweepEvaluator) noiseCompatible(t *sweepTape) bool {
	if !sw.noiseKnown {
		return false
	}
	if sw.curFree {
		return t.lastFree
	}
	return !t.lastFree && sw.curSeed == t.lastSeed
}

// colsChanged reports whether any column of the classes in mask differs
// bitwise from the tape's snapshot; withBeta includes the beta column.
func (sw *SweepEvaluator) colsChanged(t *sweepTape, mask uint8, withBeta bool) bool {
	cols := [4][]float64{sw.lat, sw.gap, sw.ovh, sw.beta}
	last := [4][]float64{t.lastCols[0], t.lastCols[1], t.lastCols[2], t.lastCols[3]}
	n := 3
	if withBeta {
		n = 4
	}
	for c := 0; c < sweepTapeClasses; c++ {
		if mask&(1<<c) == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			var cur, prev float64
			if c < len(cols[i]) {
				cur = cols[i][c]
			}
			if c < len(last[i]) {
				prev = last[i][c]
			}
			if math.Float64bits(cur) != math.Float64bits(prev) {
				return true
			}
		}
	}
	return false
}

// firstDirtyStage locates the first stage the current point changes relative
// to the tape's snapshot: a payload-size change, or a bitwise column change
// in a class the stage samples (the beta column only matters on stages that
// move bytes). Returns (stages, true) when nothing changes.
func (sw *SweepEvaluator) firstDirtyStage(t *sweepTape, cs CirculantSchedule) (int, bool) {
	if len(t.lastSizes) != t.stages || len(t.mask) != t.stages {
		return 0, false
	}
	for sg := 0; sg < t.stages; sg++ {
		off, size := cs.CirculantStage(sg)
		if off == 0 {
			continue // empty stage: one machine-independent noise draw per rank
		}
		if int32(size) != t.lastSizes[sg] {
			return sg, false
		}
		if sw.colsChanged(t, t.mask[sg], size > 0) {
			return sg, false
		}
	}
	return t.stages, true
}

// bestCkpt returns the latest valid checkpoint at or before stage.
func bestCkpt(t *sweepTape, stage int) *sweepCkpt {
	var best *sweepCkpt
	for i := range t.ckpts {
		ck := &t.ckpts[i]
		if ck.valid && ck.stage <= stage && (best == nil || ck.stage > best.stage) {
			best = ck
		}
	}
	if best != nil && best.stage == 0 {
		return nil // restoring the zero state saves nothing
	}
	return best
}

// snapshot records the completed point on the tape: sizes, columns, noise
// key and a deep copy of the result, enabling dirty-stage deltas and pure
// replays for the next point. Traced points record nothing (lanes cannot be
// replayed).
func (sw *SweepEvaluator) snapshot(t *sweepTape, s Schedule, execs int, traced bool) {
	if traced || !sw.noiseKnown {
		return
	}
	if cs, ok := s.(CirculantSchedule); ok {
		if cap(t.lastSizes) < t.stages {
			t.lastSizes = make([]int32, t.stages)
		}
		t.lastSizes = t.lastSizes[:t.stages]
		for sg := 0; sg < t.stages; sg++ {
			_, size := cs.CirculantStage(sg)
			t.lastSizes[sg] = int32(size)
		}
	} else if t.built {
		t.lastESizes = appendEdgeSizes(t.lastESizes[:0], s)
	}
	for i, col := range [4][]float64{sw.lat, sw.gap, sw.ovh, sw.beta} {
		t.lastCols[i] = append(t.lastCols[i][:0], col...)
	}
	t.lastSeed, t.lastFree = sw.curSeed, sw.curFree
	t.lastExecs = execs
	e := sw.e
	res := e.result()
	res.Messages, res.Bytes = e.messages, e.bytes
	res.Collapse = e.lastCollapse
	t.lastRes = res
	t.lastValid = true
}

// appendEdgeSizes appends the schedule's per-edge payload sizes in tape
// (Phase-A scan) order.
func appendEdgeSizes(dst []int32, s Schedule) []int32 {
	p := s.NumProcs()
	for sg := 0; sg < s.NumStages(); sg++ {
		st := s.StageAt(sg)
		for r := 0; r < p; r++ {
			for k := range st.Out[r] {
				size := 0
				if st.OutBytes != nil {
					size = st.OutBytes[r][k]
				}
				dst = append(dst, int32(size))
			}
		}
	}
	return dst
}

// genericSizesEqual reports whether the live schedule's per-edge sizes match
// the tape's previous-point snapshot exactly.
func genericSizesEqual(t *sweepTape, s Schedule) bool {
	if int64(len(t.lastESizes)) != int64(len(t.factors)) {
		return false
	}
	p := s.NumProcs()
	var cur int
	for sg := 0; sg < t.stages; sg++ {
		st := s.StageAt(sg)
		for r := 0; r < p; r++ {
			for k := range st.Out[r] {
				size := 0
				if st.OutBytes != nil {
					size = st.OutBytes[r][k]
				}
				if cur >= len(t.lastESizes) || t.lastESizes[cur] != int32(size) {
					return false
				}
				cur++
			}
		}
	}
	return cur == len(t.lastESizes)
}

// copySweepResult deep-copies a cached result so callers may own it.
func copySweepResult(r *simnet.Result) *simnet.Result {
	c := *r
	c.Times = append([]float64(nil), r.Times...)
	return &c
}

// touch marks the tape most recently used.
func (sw *SweepEvaluator) touch(t *sweepTape) {
	sw.useTick++
	t.lastUse = sw.useTick
}

// lookupTape finds or creates the memo entry for the schedule's structure,
// or returns nil when taping does not apply (budget disabled, an
// incomparable non-circulant schedule, or a class space wider than the
// tape's masks). Generic entries verify the stored per-edge structure
// against the live schedule before reuse — exact comparison, never a hash.
func (sw *SweepEvaluator) lookupTape(s Schedule) *sweepTape {
	if sw.budget <= 0 {
		return nil
	}
	p, stages := s.NumProcs(), s.NumStages()
	if cs, ok := s.(CirculantSchedule); ok {
		key, offs := circStructure(cs, sw.sizesScratch[:0])
		sw.sizesScratch = offs[:0]
		if t, ok := sw.circ[key]; ok && t.procs == p && t.stages == stages && int32sEqual(t.offs, offs) {
			return t
		}
		t := &sweepTape{key: key, offs: append([]int32(nil), offs...), procs: p, stages: stages}
		if !sw.admitTape(t, int64(p)*int64(stages)) {
			return nil
		}
		if sw.circ == nil {
			sw.circ = make(map[uint64]*sweepTape)
		}
		sw.circ[key] = t
		return t
	}
	if !reflect.TypeOf(s).Comparable() {
		return nil
	}
	if t, ok := sw.gen[s]; ok {
		if sw.verifyGeneric(t, s) {
			return t
		}
		delete(sw.gen, s) // mutated in place; rebuild
	}
	edges := countEdges(s)
	t := &sweepTape{sched: s, procs: p, stages: stages}
	if !sw.admitTape(t, edges) {
		return nil
	}
	if sw.gen == nil {
		sw.gen = make(map[Schedule]*sweepTape)
	}
	sw.gen[s] = t
	return t
}

// admitTape sizes the candidate entry and makes room for it, evicting
// least-recently-used tapes; a tape that cannot fit alone is rejected
// (evaluation falls back to live term pricing).
func (sw *SweepEvaluator) admitTape(t *sweepTape, edges int64) bool {
	perEdge := int64(9) // factor + class
	if t.offs == nil {
		perEdge += 8 // srcs + dsts verification lanes
	}
	est := edges*perEdge + int64(t.stages)*9 + int64(t.procs)*8 +
		int64(sweepCkptSlots+1)*int64(t.procs)*int64(reflect.TypeOf(rankState{}).Size())
	if est > sw.budget {
		return false
	}
	for sw.memoBytes()+est > sw.budget {
		if !sw.evictOne(t) {
			return false
		}
	}
	t.bytes = est
	// The edge count bounds the tape, so the build never regrows it.
	t.factors, t.classes = make([]float64, 0, edges), make([]uint8, 0, edges)
	if t.offs == nil {
		t.srcs, t.dsts = make([]int32, 0, edges), make([]int32, 0, edges)
	}
	return true
}

// accounted refreshes the entry's size after building (the estimate admitted
// it; the built tape is authoritative).
func (t *sweepTape) accounted(sw *SweepEvaluator) {
	t.bytes = int64(len(t.factors))*8 + int64(len(t.classes)) +
		int64(len(t.srcs)+len(t.dsts))*4 + int64(len(t.stageOff))*8 + int64(len(t.mask)) +
		int64(len(t.offs))*4 + int64(sweepCkptSlots+1)*int64(t.procs)*int64(reflect.TypeOf(rankState{}).Size())
	for sw.memoBytes() > sw.budget {
		if !sw.evictOne(t) {
			return
		}
	}
}

// evictOne drops the least-recently-used tape, never the one being admitted
// or refreshed (keep).
func (sw *SweepEvaluator) evictOne(keep *sweepTape) bool {
	var victim *sweepTape
	for _, t := range sw.circ {
		if t != keep && (victim == nil || t.lastUse < victim.lastUse) {
			victim = t
		}
	}
	for _, t := range sw.gen {
		if t != keep && (victim == nil || t.lastUse < victim.lastUse) {
			victim = t
		}
	}
	if victim == nil {
		return false
	}
	if victim.offs != nil {
		delete(sw.circ, victim.key)
	} else {
		delete(sw.gen, victim.sched)
	}
	sw.stats.TapesEvicted++
	return true
}

// verifyGeneric checks the live schedule against the tape's stored per-edge
// structure (the schedule value is the map key, but a caller mutating a
// schedule in place would alias it — the walk catches that exactly).
func (sw *SweepEvaluator) verifyGeneric(t *sweepTape, s Schedule) bool {
	if !t.built {
		return true
	}
	if t.procs != s.NumProcs() || t.stages != s.NumStages() {
		return false
	}
	var cur int64
	for sg := 0; sg < t.stages; sg++ {
		if cur != t.stageOff[sg] {
			return false
		}
		st := s.StageAt(sg)
		for r := 0; r < t.procs; r++ {
			for _, dst := range st.Out[r] {
				if cur >= int64(len(t.dsts)) || t.srcs[cur] != int32(r) || t.dsts[cur] != int32(dst) {
					return false
				}
				cur++
			}
		}
	}
	return cur == int64(len(t.dsts)) && cur == t.stageOff[t.stages]
}

// countEdges walks the schedule once for the admission estimate.
func countEdges(s Schedule) int64 {
	var n int64
	for sg := 0; sg < s.NumStages(); sg++ {
		st := s.StageAt(sg)
		for _, outs := range st.Out {
			n += int64(len(outs))
		}
	}
	return n
}

// ckptTaker records evenly spaced rank-state checkpoints during execution 0
// of a taped circulant point, refreshing only slots past the resume stage.
type ckptTaker struct {
	t      *sweepTape
	from   int
	stride int
	next   int
}

func newCkptTaker(t *sweepTape, from int) *ckptTaker {
	if t.ckpts == nil {
		t.ckpts = make([]sweepCkpt, sweepCkptSlots+1)
	}
	stride := (t.stages + sweepCkptSlots - 1) / sweepCkptSlots
	if stride < 1 {
		stride = 1
	}
	ck := &ckptTaker{t: t, from: from, stride: stride}
	ck.next = ((from / stride) + 1) * stride
	return ck
}

// maybe snapshots the evaluator state before stage sg (state covers stages
// [0, sg)) when sg is a slot boundary past the resume point.
func (ck *ckptTaker) maybe(sg int, e *Evaluator) {
	if sg < ck.next || sg <= ck.from {
		return
	}
	ck.next = (sg/ck.stride + 1) * ck.stride
	slot := sg / ck.stride
	if sg == ck.t.stages {
		slot = sweepCkptSlots
	}
	if slot > sweepCkptSlots {
		return
	}
	c := &ck.t.ckpts[slot]
	c.valid = true
	c.stage = sg
	c.messages, c.bytes = e.messages, e.bytes
	c.states = append(c.states[:0], e.states...)
}

// tapeCursor is the stage walker's term source on the sweep path
// (Evaluator.execStages): build mode derives each edge's (factor, class) term
// through PairTerm and records it, replay mode reads the tape, and either way
// the term is priced against the point's columns as column[class]*factor.
// Edges are visited in the walker's Phase-A scan order, which is the tape
// order. At every stage boundary the cursor keeps the tape's per-stage
// offsets and class masks and offers the evaluator state to the checkpoint
// taker.
type tapeCursor struct {
	sw    *SweepEvaluator
	t     *sweepTape
	build bool
	cur   int64
	mask  uint8
	ck    *ckptTaker
}

// beginStage is called before stage sg, and once more with sg = NumStages
// after the last one (the tape's closing offset, the final checkpoint).
func (tc *tapeCursor) beginStage(sg int, e *Evaluator) {
	if tc.ck != nil {
		tc.ck.maybe(sg, e)
	}
	if tc.build {
		tc.t.stageOff = append(tc.t.stageOff, tc.cur)
		tc.mask = 0
	} else {
		tc.cur = tc.t.stageOff[sg]
	}
}

// endStage closes a stage: build mode records which classes it sampled.
func (tc *tapeCursor) endStage() {
	if tc.build {
		tc.t.mask = append(tc.t.mask, tc.mask)
	}
}

// price prices the next edge; (r, dst) is the edge the walker is at, which
// build mode derives the term from and generic tapes verify against.
func (tc *tapeCursor) price(r, dst int, pc *pairCost) {
	sw, t := tc.sw, tc.t
	var f float64
	var c uint8
	if tc.build {
		f, c = sw.tm.PairTerm(r, dst)
		t.factors = append(t.factors, f)
		t.classes = append(t.classes, c)
		if t.offs == nil {
			t.srcs = append(t.srcs, int32(r))
			t.dsts = append(t.dsts, int32(dst))
		}
		if c < sweepTapeClasses {
			tc.mask |= 1 << c
		} else {
			tc.mask = 0xff
			t.overflow = true
		}
	} else {
		f, c = t.factors[tc.cur], t.classes[tc.cur]
	}
	tc.cur++
	lat := sw.lat[c] * f
	*pc = pairCost{lat, sw.gap[c] * f, sw.beta[c] * f, sw.ovh[c] * f, lat, sw.nic[r] == sw.nic[dst]}
}
