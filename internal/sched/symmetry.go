package sched

import (
	"encoding/binary"

	"hbsp/internal/fault"
	"hbsp/internal/simnet"
)

// Symmetry-collapsed evaluation: verified patterns at power-of-two rank
// counts (dissemination, total exchange, the circulant collectives) prescribe
// the same stage-local neighborhood to every rank, and on a machine whose
// pair parameters are a pure function of the distance class the LogGP
// recurrence then computes the same numbers P times over. The collapse
// detects rank-equivalence classes — from the schedule's type (a *Circulant)
// or from a structural fingerprint of the stage graph — and evaluates one
// kernel state per class per stage, for the class's representative rank,
// counting traffic for the whole class; each rank's time is read off its
// class's state when the result is assembled.
// Virtual times, makespan and traffic counters are bit-identical to per-rank
// evaluation (pinned by the cross-engine golden tests); where heterogeneity,
// noise, trace recording or a rank-targeted fault plan breaks the argument,
// evaluation falls back to the per-rank sweep and reports why in
// simnet.Result.Collapse.

// SymmetricMachine is the optional capability a machine implements to expose
// the homogeneity structure of its pair parameters (platform.Machine
// implements it from its profile and placement).
type SymmetricMachine interface {
	// HomogeneousClasses reports whether the pair parameters (latency, gap,
	// beta, overhead) are a pure function of the pair's distance class and
	// the noise stream is identically 1 — no per-pair heterogeneity spread,
	// no run-to-run jitter. This is the precondition of every collapse.
	HomogeneousClasses() bool
	// PairClass returns the distance class of the pair (i, j); on a machine
	// with HomogeneousClasses, pairs of equal class have bit-identical
	// parameters in both directions.
	PairClass(i, j int) uint8
	// UniformPairs reports whether additionally every off-diagonal pair has
	// the same class and crosses NICs (one rank per node): all ranks are
	// interchangeable, so a circulant schedule collapses to one class.
	UniformPairs() bool
}

// Partition is a rank-equivalence partition: ClassOf maps each rank to its
// class, Reps holds the representative (lowest) rank of each class, and Size
// the class cardinalities.
type Partition struct {
	ClassOf []int32
	Reps    []int32
	Size    []int64
}

// NumClasses returns the number of equivalence classes.
func (pt *Partition) NumClasses() int { return len(pt.Reps) }

// refinement cost guards: the structural fingerprint is only attempted when
// per-rank evaluation is affordable anyway (it is the correctness baseline at
// these sizes) and the stage graph is small enough that the fixpoint pass
// never dominates the evaluation it is trying to save.
const (
	maxRefineProcs  = 1 << 12
	maxRefineWork   = 1 << 22 // stages × ranks
	maxRefinePasses = 32
)

// CollapseClasses detects the rank-equivalence classes of the schedule on
// the machine, or returns nil when collapsed evaluation does not apply (the
// caller then evaluates per rank). Two tiers exist:
//
//   - Circulant: a *Circulant (wrapped or not) on a machine with uniform
//     off-diagonal pairs collapses to a single class in O(1) — the path that
//     carries P=1M evaluations. The type is the only statement of the shape:
//     an edge-list literal of the same stages takes the structural tier.
//   - Structural: otherwise the stage graph is fingerprinted rank by rank
//     (out-edges as ordered (pair class, destination class, size) tuples,
//     in-edges as ordered (source class, position in the source's out-row,
//     pair class, size) tuples) and refined to a fixpoint. Exact signatures,
//     not hashes: a collision would silently corrupt virtual times.
//
// The returned partition is valid for any number of consecutive executions
// from class-aligned entry states (equal clock, port and noise-stream state
// within each class): the fingerprint guarantees equivalent ranks perform
// equivalent operation sequences, so alignment is preserved inductively.
func CollapseClasses(m simnet.Machine, s Schedule) *Partition {
	part, _ := collapseClassesWith(m, s, nil)
	return part
}

// collapseClassesWith is CollapseClasses under a compiled fault plan, and
// additionally reports the decision as a simnet.Collapse diagnostic. A
// rank-uniform plan (class- or wildcard-matched link degradations only)
// preserves the circulant tier; any rank-targeted treatment — stragglers,
// fail-stops, per-rank link rules — seeds the structural refinement with
// per-rank fault fingerprints and folds per-edge degradation masks into the
// edge signatures, so degraded ranks split into their own (often singleton)
// classes and everything else still collapses. When refinement fails under a
// rank-targeted plan the reported reason is CollapseReasonFault.
func collapseClassesWith(m simnet.Machine, s Schedule, rt *fault.Runtime) (*Partition, simnet.Collapse) {
	if m == nil || s == nil {
		return nil, simnet.Collapse{Reason: simnet.CollapseReasonAsymmetric}
	}
	p := s.NumProcs()
	if p < 2 {
		return nil, simnet.Collapse{Reason: simnet.CollapseReasonAsymmetric}
	}
	sm, ok := m.(SymmetricMachine)
	if !ok || !sm.HomogeneousClasses() {
		reason := simnet.CollapseReasonHetero
		if ir, ok := m.(interface{ InhomogeneityReason() string }); ok {
			if r := ir.InhomogeneityReason(); r != "" {
				reason = r
			}
		}
		return nil, simnet.Collapse{Reason: reason}
	}
	uniformFaults := rt == nil || rt.Uniform()
	if _, ok := AsCirculant(s); ok && sm.UniformPairs() && uniformFaults {
		one := &Partition{ClassOf: make([]int32, p), Reps: []int32{0}, Size: []int64{int64(p)}}
		return one, simnet.Collapse{Applied: true, Classes: 1}
	}
	part := refineClasses(sm, s, rt)
	if part == nil {
		reason := simnet.CollapseReasonAsymmetric
		if !uniformFaults {
			reason = simnet.CollapseReasonFault
		}
		return nil, simnet.Collapse{Reason: reason}
	}
	return part, simnet.Collapse{Applied: true, Classes: part.NumClasses()}
}

// refineClasses runs the structural fixpoint refinement. Starting from one
// class — or, under a fault plan, from the partition induced by per-rank
// fault fingerprints, so a straggling or failing rank can never share a class
// with a healthy one — every pass re-signs each rank per stage against the
// current partition and splits classes whose members disagree; refinement
// never merges, so a pass with no splits is a fixpoint and the partition is
// returned. Rank-targeted link degradations refine per edge: each edge's
// signature carries the bitmask of matching link rules, which separates ranks
// whose corresponding edges are treated differently even when the ranks
// themselves carry identical fault fingerprints. Schedules that refine to
// all-singleton classes (trees, rings, token patterns — anything whose ranks
// genuinely evolve differently), or that are too large to fingerprint
// cheaply, return nil.
func refineClasses(sm SymmetricMachine, s Schedule, rt *fault.Runtime) *Partition {
	p := s.NumProcs()
	stages := s.NumStages()
	if p > maxRefineProcs || stages <= 0 || stages*p > maxRefineWork {
		return nil
	}
	classOf := make([]int32, p)
	next := make([]int32, p)
	nclasses := 1
	ids := make(map[string]int32, p)
	var sig []byte
	edgeSigs := rt != nil && rt.HasLinks()
	if rt != nil {
		// Seed from fault fingerprints, numbered in first-seen rank order so
		// buildPartition's lowest-rank-representative invariant holds.
		for r := 0; r < p; r++ {
			sig = rt.AppendFingerprint(sig[:0], r)
			id, ok := ids[string(sig)]
			if !ok {
				id = int32(len(ids))
				ids[string(sig)] = id
			}
			classOf[r] = id
		}
		nclasses = len(ids)
		if nclasses == p {
			return nil
		}
	}
	v := ViewOf(s)
	for pass := 0; pass < maxRefinePasses; pass++ {
		split := false
		for sg := 0; sg < stages; sg++ {
			v.Load(sg)
			for k := range ids {
				delete(ids, k)
			}
			assigned := int32(0)
			for r := 0; r < p; r++ {
				sig = binary.AppendUvarint(sig[:0], uint64(classOf[r]))
				for k, dst := range v.Outs(r) {
					sig = binary.AppendUvarint(sig, uint64(sm.PairClass(r, dst)))
					sig = binary.AppendUvarint(sig, uint64(classOf[dst]))
					sig = binary.AppendUvarint(sig, uint64(v.OutSize(r, k)))
					if edgeSigs {
						sig = binary.AppendUvarint(sig, rt.EdgeSig(r, dst))
					}
				}
				sig = append(sig, 0xff)
				for _, src := range v.Ins(r) {
					k := outPosition(v.Outs(src), r)
					sig = binary.AppendUvarint(sig, uint64(classOf[src]))
					sig = binary.AppendUvarint(sig, uint64(k))
					sig = binary.AppendUvarint(sig, uint64(sm.PairClass(src, r)))
					sig = binary.AppendUvarint(sig, uint64(v.OutSize(src, k)))
					if edgeSigs {
						sig = binary.AppendUvarint(sig, rt.EdgeSig(src, r))
					}
				}
				id, ok := ids[string(sig)]
				if !ok {
					id = assigned
					assigned++
					ids[string(sig)] = id
				}
				next[r] = id
			}
			// Refinement only ever subdivides: an unchanged class count
			// means the partition (canonically numbered in first-seen rank
			// order) is unchanged by this stage.
			if int(assigned) != nclasses {
				split = true
				nclasses = int(assigned)
			}
			classOf, next = next, classOf
			if nclasses == p {
				return nil
			}
		}
		if !split {
			return buildPartition(classOf, nclasses)
		}
		if pass == 0 && nclasses > p/2 {
			// Barely any sharing: per-rank evaluation is cheaper than
			// class-indexed bookkeeping.
			return nil
		}
	}
	return nil
}

// outPosition returns the index of dst in the out-row — the positional slot
// the in-edge ordering contract matches arrivals by.
func outPosition(out []int, dst int) int {
	for k, d := range out {
		if d == dst {
			return k
		}
	}
	return -1
}

// buildPartition assembles representatives and sizes from a class map whose
// ids are numbered in first-seen rank order (so each rep is its class's
// lowest rank).
func buildPartition(classOf []int32, nclasses int) *Partition {
	pt := &Partition{
		ClassOf: append([]int32(nil), classOf...),
		Reps:    make([]int32, nclasses),
		Size:    make([]int64, nclasses),
	}
	for c := range pt.Reps {
		pt.Reps[c] = -1
	}
	for r, c := range classOf {
		if pt.Reps[c] < 0 {
			pt.Reps[c] = int32(r)
		}
		pt.Size[c]++
	}
	return pt
}
