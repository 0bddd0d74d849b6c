package sched

import (
	"reflect"

	"hbsp/internal/simnet"
)

// Collapsed execution: ExecCollapsed evaluates one representative rankState
// per equivalence class per stage instead of all P ranks. Member states are
// untouched until ReplicateClasses copies the representative's clock, port
// and noise-stream state across each class — so a run of consecutive
// executions pays O(classes·stages) evaluation plus one O(P) assembly.
//
// The arithmetic is the same send/recvComplete code the per-rank sweep uses;
// only the iteration domain shrinks. Collapse preconditions (checked by the
// callers): the partition came from CollapseClasses on this machine and
// schedule, no trace lanes are attached, and entry states are class-aligned.

// partEntry is one cached collapse decision: the partition (nil = collapse
// does not apply) together with its diagnostic.
type partEntry struct {
	part *Partition
	info simnet.Collapse
}

// ExecScheduleAuto evaluates one execution of the schedule, collapsing
// symmetric stages onto class representatives when the machine, schedule and
// current entry states allow it, and falling back to the per-rank
// ExecSchedule sweep otherwise. Results — clocks, port states, noise
// positions, traffic counters — are bit-identical either way; the inline
// gate paths (the BSP count exchange, the mpi schedule flood) call this. The
// decision (and, on fallback, its reason) is retained for CollapseInfo.
func (e *Evaluator) ExecScheduleAuto(s Schedule, tagBase int, computeEmpty bool) {
	part, info := e.partitionFor(s)
	if part != nil && !e.classesAligned(part) {
		part = nil
		info = simnet.Collapse{Reason: simnet.CollapseReasonAsymmetric}
		if e.tracing() {
			info.Reason = simnet.CollapseReasonTrace
		}
	}
	e.lastCollapse = info
	if part == nil {
		e.ExecSchedule(s, tagBase, computeEmpty)
		return
	}
	e.ExecCollapsed(s, part, tagBase, computeEmpty)
	e.ReplicateClasses(part)
}

// partitionFor returns the cached rank-equivalence partition of the schedule
// (nil = collapse does not apply) and its diagnostic, computing and caching
// both on first sight. Ineligible schedules cache the nil partition with its
// reason so the structural refinement never reruns. The cache is valid for
// the evaluator's current run: it is dropped on Release, and the fault plan
// the decision depends on is fixed per run.
func (e *Evaluator) partitionFor(s Schedule) (*Partition, simnet.Collapse) {
	if e.collapseOff {
		return nil, simnet.Collapse{Reason: simnet.CollapseReasonOff}
	}
	if !reflect.TypeOf(s).Comparable() {
		return CollapseClassesWith(e.m, s, e.ft)
	}
	ent, ok := e.partCache[s]
	if !ok {
		ent.part, ent.info = CollapseClassesWith(e.m, s, e.ft)
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
		if e.states[r].lane != nil {
			return true
		}
	}
	return false
}

// classesAligned reports whether the current entry states permit collapsed
// evaluation: no rank is traced, and within every class each member's
// (clock, ports, noise position) equals its representative's. Equivalent
// ranks that start aligned stay aligned, so one check per inline evaluation
// suffices.
func (e *Evaluator) classesAligned(part *Partition) bool {
	for r := range e.states {
		rs := &e.states[r]
		if rs.lane != nil {
			return false
		}
		rep := part.Reps[part.ClassOf[r]]
		if int32(r) == rep {
			continue
		}
		ps := &e.states[rep]
		if rs.now != ps.now || rs.txFree != ps.txFree || rs.rxFree != ps.rxFree || rs.noiseSeq != ps.noiseSeq {
			return false
		}
	}
	return true
}

// ReplicateClasses copies each representative's state across its class —
// the O(P) result-assembly step after any number of collapsed executions.
func (e *Evaluator) ReplicateClasses(part *Partition) {
	for r := range e.states {
		rep := part.Reps[part.ClassOf[r]]
		if int32(r) == rep {
			continue
		}
		rs, ps := &e.states[r], &e.states[rep]
		rs.now, rs.txFree, rs.rxFree, rs.noiseSeq = ps.now, ps.txFree, ps.rxFree, ps.noiseSeq
	}
}

// ExecCollapsed evaluates one execution of the schedule over class
// representatives only (see the collapse preconditions above). Traffic
// counters account for the whole class: every member performs the
// representative's sends.
func (e *Evaluator) ExecCollapsed(s Schedule, part *Partition, tagBase int, computeEmpty bool) {
	e.execCollapsed(s, part, tagBase, computeEmpty, nil)
}

// execCollapsed is ExecCollapsed with an optional per-stage cancellation
// checker (hot at P=1M, where one execution is minutes of wall time under
// the per-rank sweep and still non-trivial collapsed).
func (e *Evaluator) execCollapsed(s Schedule, part *Partition, tagBase int, computeEmpty bool, chk *stageChecker) error {
	if part.NumClasses() == 1 {
		if cs, ok := s.(CirculantSchedule); ok {
			return e.execCollapsedCirculant(cs, tagBase, computeEmpty, chk)
		}
	}
	nc := part.NumClasses()
	if cap(e.classIn) < nc {
		e.classIn = make([][]inEdge, nc)
	}
	classIn := e.classIn[:nc]
	v := viewOf(s)
	var pc pairCost
	for sg := 0; sg < s.NumStages(); sg++ {
		if chk != nil {
			if err := chk.tick(); err != nil {
				return err
			}
		}
		v.load(sg)
		tag := tagBase + sg
		done := e.sendDone[:0]

		// Phase A over representatives: entry clocks and send injections,
		// in-edge records parked per class by out-edge position.
		for c := 0; c < nc; c++ {
			r := int(part.Reps[c])
			rs := &e.states[r]
			outs := v.outs(r)
			if len(outs) == 0 && len(v.ins(r)) == 0 {
				if computeEmpty {
					rs.compute(e.m, e.ft, r, 0)
				}
				continue
			}
			e.entry[r] = rs.now
			if len(outs) > 0 {
				ci := classIn[c][:0]
				var repBytes int64
				for k, dst := range outs {
					size := v.outSize(r, k)
					e.price(r, dst, &pc)
					ci = append(ci, inEdge{})
					done = append(done, e.send(rs, r, dst, tag, size, &pc, &ci[k]))
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
		// queue substitutes for the per-receiver inbox. Clock advances go
		// straight through setNow: lanes are nil under collapse, and this form
		// never reads the record's int32 payload size (count-exchange payloads
		// exceed int32 at P=1M); fail-stop crossings still apply — a class
		// whose members all fail identically collapses like any other.
		sent := 0
		for c := 0; c < nc; c++ {
			r := int(part.Reps[c])
			rs := &e.states[r]
			for _, src := range v.ins(r) {
				k := outPosition(v.outs(src), r)
				completeAt, _ := rs.recvComplete(e.entry[r], &classIn[part.ClassOf[src]][k])
				if completeAt > rs.now {
					rs.setNow(e.ft, r, completeAt)
				}
			}
			for range v.outs(r) {
				if completeAt := done[sent]; completeAt > rs.now {
					rs.setNow(e.ft, r, completeAt)
				}
				sent++
			}
		}
	}
	return nil
}

// execCollapsedCirculant is the O(1)-per-stage fast path for a single-class
// partition over a circulant schedule: stage k is one uniform edge
// i→(i+d) mod P, so evaluating rank 0's send and its receive from P−d
// evaluates every rank. No stage adjacency is materialized — this is the
// path that carries P=1M runs.
func (e *Evaluator) execCollapsedCirculant(cs CirculantSchedule, tagBase int, computeEmpty bool, chk *stageChecker) error {
	p := len(e.states)
	rs := &e.states[0]
	var pc pairCost
	var in inEdge
	for sg := 0; sg < cs.NumStages(); sg++ {
		if chk != nil {
			if err := chk.tick(); err != nil {
				return err
			}
		}
		off, size := cs.CirculantStage(sg)
		if off == 0 {
			if computeEmpty {
				rs.compute(e.m, e.ft, 0, 0)
			}
			continue
		}
		tag := tagBase + sg
		entry := rs.now
		e.price(0, off, &pc)
		sendDone := e.send(rs, 0, off, tag, size, &pc, &in)
		e.messages += int64(p - 1)
		e.bytes += int64(p-1) * int64(size)
		// By symmetry the message arriving from p-off equals rank 0's own.
		recvDone, _ := rs.recvComplete(entry, &in)
		if recvDone > rs.now {
			rs.setNow(e.ft, 0, recvDone)
		}
		if sendDone > rs.now {
			rs.setNow(e.ft, 0, sendDone)
		}
	}
	return nil
}
