package sched

import (
	"reflect"

	"hbsp/internal/loggp"
	"hbsp/internal/simnet"
)

// Collapsed execution: execCollapsed evaluates one kernel state per
// equivalence class per stage instead of all P ranks, in class-indexed arrays
// (classStates, classEntry, classIn) of O(classes) size, passing the kernel
// each class's representative rank so the noise and fault streams are the
// representative's. A collapsed whole run (execRuns) starts from zeroed class
// states and never sizes a per-rank state: its O(P) parts are the machine, the
// partition and the result times Times reads through Partition.ClassOf. One
// inline evaluation at a gate (ExecScheduleAuto) gathers the representatives'
// live states into the class array, walks, and copies the advanced clocks
// back to every member.
//
// The arithmetic is the kernel's, as in the per-rank sweep; only the
// iteration domain shrinks. Collapse preconditions (checked by the callers):
// the partition came from collapseClassesWith on this machine and schedule,
// no trace lanes are attached, and entry states are class-aligned.

// partEntry is one cached collapse decision: the partition (nil = collapse
// does not apply) together with its diagnostic.
type partEntry struct {
	part *Partition
	info simnet.Collapse
}

// decideCollapse is the collapse decision, written once for both entries — the
// schedule body of the run frame (execRuns) and one inline evaluation at a
// gate (ExecScheduleAuto).
// The first condition that holds, in the order simnet.Collapse documents,
// keeps evaluation per-rank and names why; when none holds the partition
// applies. The machine and schedule / fault-plan rows are
// collapseClassesWith's, reached through partition — derived by RunSchedule,
// memoized by a SweepEvaluator or by the evaluator itself. traced and aligned
// are only asked when the rows above them pass.
func (e *Evaluator) decideCollapse(partition func() (*Partition, simnet.Collapse), traced func() bool, aligned func(*Partition) bool) (*Partition, simnet.Collapse) {
	if e.collapseOff {
		return nil, simnet.Collapse{Reason: simnet.CollapseReasonOff}
	}
	part, info := partition()
	switch {
	case part == nil:
		return nil, info
	case traced():
		return nil, simnet.Collapse{Reason: simnet.CollapseReasonTrace}
	case !aligned(part):
		return nil, simnet.Collapse{Reason: simnet.CollapseReasonAsymmetric}
	}
	return part, info
}

// ExecScheduleAuto evaluates one execution of the schedule, collapsing
// symmetric stages onto class representatives when decideCollapse allows it
// for the current entry states, and falling back to the per-rank ExecSchedule
// sweep otherwise. Results — clocks, port states, noise positions, traffic
// counters — are bit-identical either way; the inline gate paths (the BSP
// count exchange, the mpi schedule flood) call this. The decision (and, on
// fallback, its reason) is retained for CollapseInfo.
func (e *Evaluator) ExecScheduleAuto(s Schedule, tagBase int, computeEmpty bool) {
	part, info := e.decideCollapse(func() (*Partition, simnet.Collapse) { return e.partitionFor(s) }, e.tracing, e.classesAligned)
	e.lastCollapse = info
	if part == nil {
		e.ExecSchedule(s, tagBase, computeEmpty)
		return
	}
	cls := e.sizeClasses(part.NumClasses())
	for c, rep := range part.Reps {
		cls[c] = e.states[rep]
	}
	e.execCollapsed(s, part, tagBase, computeEmpty, nil)
	for r := range e.states {
		copyClock(&e.states[r], &cls[part.ClassOf[r]])
	}
}

// partitionFor returns the cached rank-equivalence partition of the schedule
// (nil = collapse does not apply) and its diagnostic, computing and caching
// both on first sight. Ineligible schedules cache the nil partition with its
// reason so the structural refinement never reruns. The cache is valid for
// the evaluator's current run: it is dropped on Release, and the fault plan
// the decision depends on is fixed per run.
func (e *Evaluator) partitionFor(s Schedule) (*Partition, simnet.Collapse) {
	if !reflect.TypeOf(s).Comparable() {
		return collapseClassesWith(e.m, s, e.env.Faults)
	}
	ent, ok := e.partCache[s]
	if !ok {
		ent.part, ent.info = collapseClassesWith(e.m, s, e.env.Faults)
		if e.partCache == nil {
			e.partCache = make(map[Schedule]partEntry)
		}
		e.partCache[s] = ent
	}
	return ent.part, ent.info
}

// tracing reports whether any rank currently has a trace lane attached.
func (e *Evaluator) tracing() bool {
	for r := range e.states {
		if e.states[r].Lane != nil {
			return true
		}
	}
	return false
}

// classesAligned reports whether the current entry states permit collapsed
// evaluation: within every class each member's (clock, ports, noise
// position) equals its representative's. Equivalent ranks that start aligned
// stay aligned, so one check per inline evaluation suffices.
func (e *Evaluator) classesAligned(part *Partition) bool {
	for r := range e.states {
		rs := &e.states[r]
		rep := part.Reps[part.ClassOf[r]]
		if int32(r) == rep {
			continue
		}
		ps := &e.states[rep]
		if rs.Now != ps.Now || rs.TxFree != ps.TxFree || rs.RxFree != ps.RxFree || rs.NoiseSeq != ps.NoiseSeq {
			return false
		}
	}
	return true
}

// sizeClasses sizes the class-indexed state arrays for nc classes and
// returns the states; the caller sets them.
func (e *Evaluator) sizeClasses(nc int) []loggp.State {
	if cap(e.classStates) < nc {
		e.classStates = make([]loggp.State, nc)
		e.classEntry = make([]float64, nc)
		e.classIn = make([][]loggp.Edge, nc)
	}
	e.classStates, e.classEntry = e.classStates[:nc], e.classEntry[:nc]
	return e.classStates
}

// execCollapsed evaluates one execution of the schedule on the class states
// (sized by sizeClasses; see the collapse preconditions above), with an
// optional per-stage cancellation checker (one P=1M execution is no longer
// negligible wall time). Traffic counters account for the whole class: every
// member performs the representative's sends. A one-class partition over a
// circulant schedule — the shape that carries P=1M runs — costs O(1) per
// stage here: the stage view derives the single peer pair on the fly and no
// adjacency is materialized.
func (e *Evaluator) execCollapsed(s Schedule, part *Partition, tagBase int, computeEmpty bool, chk *stageChecker) error {
	nc := part.NumClasses()
	classIn, entry := e.classIn[:nc], e.classEntry
	v := ViewOf(s)
	env := &e.env
	for sg := 0; sg < s.NumStages(); sg++ {
		if err := chk.tick(); err != nil {
			return err
		}
		v.Load(sg)
		tag := tagBase + sg
		done := e.sendDone[:0]

		// Phase A over representatives: entry clocks and send injections,
		// in-edge records parked per class by out-edge position.
		for c := 0; c < nc; c++ {
			r := int(part.Reps[c])
			rs := &e.classStates[c]
			outs := v.Outs(r)
			if len(outs) == 0 && len(v.Ins(r)) == 0 {
				if computeEmpty {
					rs.Compute(env, r, 0)
				}
				continue
			}
			entry[c] = rs.Now
			if len(outs) > 0 {
				ci := classIn[c][:0]
				var repBytes int64
				for k, dst := range outs {
					size := v.OutSize(r, k)
					ci = append(ci, loggp.Edge{})
					done = append(done, e.send(&e.traffic, rs, r, dst, tag, size, e.Price(r, dst), &ci[k]))
					repBytes += int64(size)
				}
				classIn[c] = ci
				if extra := part.Size[c] - 1; extra > 0 {
					e.messages += extra * int64(len(outs))
					e.bytes += extra * repBytes
				}
			}
		}
		e.sendDone = done

		// Phase B over representatives: waits, receives first then sends, in
		// edge order. An in-edge from src at out-position k carries the same
		// record src's representative produced at position k (class
		// equivalence covers pair class, position and size), so the class
		// queue substitutes for the per-receiver inbox. Lanes are nil under
		// collapse, so the waits are plain clock advances; fail-stop
		// crossings still apply — a class whose members all fail identically
		// collapses like any other.
		sent := 0
		for c := 0; c < nc; c++ {
			r := int(part.Reps[c])
			rs := &e.classStates[c]
			for _, src := range v.Ins(r) {
				k := outPosition(v.Outs(src), r)
				completeAt, _ := rs.RecvComplete(entry[c], &classIn[part.ClassOf[src]][k])
				rs.AdvanceTo(env, r, completeAt)
			}
			for range v.Outs(r) {
				rs.AdvanceTo(env, r, done[sent])
				sent++
			}
		}
	}
	return nil
}
