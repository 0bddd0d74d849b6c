package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hbsp"
	"hbsp/sched"
	"hbsp/sim"
)

// The sweep path: schedule-expressible collective points under the default
// engine skip the session machinery entirely and run on a pooled
// sched.SweepEvaluator — a kept evaluator arena, the fault plan compiled
// once, memoized symmetry partitions. Evaluators are keyed by the profile's
// *base* fingerprint (before any LogGP scaling) plus everything an evaluator
// fixes at construction — rank count, ack mode, collapse mode, fault plan —
// so all points of one NDJSON sweep ride the same evaluator, and so do
// coalesced single-point misses against the same profile arriving across
// requests. Uploaded machines share one evaluator per construction tuple
// whatever their fingerprint: an upload has no family of scaled or reseeded
// siblings to keep partitions for, the evaluator rebases onto each machine it
// is handed, and keying by fingerprint would pin one P×P machine per upload
// for the life of the pool entry. Results are bit-identical to the session
// path (the sweep evaluator's contract), so the rendered bytes an entry
// produces are indistinguishable from the legacy evaluation they replace.

// sweepPoolEntries bounds the evaluator pool. Entries hold an evaluator
// arena (O(P)) plus a bounded partition memo; evicted entries are left to the
// garbage collector — another goroutine may still be evaluating on one, so
// they are never released eagerly.
const sweepPoolEntries = 64

// sweepEntry is one pooled evaluator. The mutex serializes points — a
// SweepEvaluator is single-threaded by design — and parts holds the
// evaluator's PartitionsReused after the previous point, so per-point deltas
// feed the /metrics counter.
type sweepEntry struct {
	mu    sync.Mutex
	sw    *sched.SweepEvaluator
	parts int64
}

// sweptEligible reports whether a point can run on the sweep-evaluator path:
// a schedule-expressible collective on any machine, profile-backed or
// uploaded, under the default engine, untraced (tracing forces per-rank lanes
// and the session's recorder plumbing).
func (s *Server) sweptEligible(req *PredictRequest, w *WorkloadSpec) bool {
	if req.Options.Engine != "auto" || req.Options.Trace {
		return false
	}
	switch w.Kind {
	case "barrier", "broadcast", "reduce", "allreduce", "allgather", "totalexchange":
		return true
	}
	return false
}

// sweepKey canonicalizes everything a pooled evaluator fixes at
// construction. The run seed is absent deliberately: it arrives with each
// point's machine.
func sweepKey(rp *resolvedProfile, procs int, req *PredictRequest) string {
	ack := true
	if req.Options.AckSends != nil {
		ack = *req.Options.AckSends
	}
	family := rp.baseFingerprint
	if rp.cluster == nil {
		family = "upload"
	}
	return fmt.Sprintf("sweep/%s/p%d/ack%t/%s/%s",
		family, procs, ack, req.Options.Collapse, req.Faults.Fingerprint())
}

// sweepEvaluator fetches (or builds) the pooled evaluator of a key; pooled
// reports that it was already there. The admission mutex makes get-or-create
// atomic, so concurrent misses on one key share a single evaluator instead of
// building duplicates.
func (s *Server) sweepEvaluator(key string, req *PredictRequest, rp *resolvedProfile, seed int64) (ent *sweepEntry, pooled bool, err error) {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	if cached, ok := s.sweeps.Get(key); ok {
		return cached.(*sweepEntry), true, nil
	}
	opt := sched.SweepOptions{
		// The gate-inline collective paths this replaces bill nothing on
		// stages where a rank has no edges.
		ComputeEmpty: false,
	}
	if req.Options.AckSends != nil {
		opt.AckSends = *req.Options.AckSends
	} else {
		opt.AckSends = true
	}
	if req.Options.Collapse == "off" {
		opt.SymmetryCollapse = sim.CollapseOff
	}
	if req.Faults != nil && !req.Faults.Empty() {
		opt.Faults = req.Faults
	}
	sw, err := sched.NewSweepEvaluator(rp.seeded(seed), opt)
	if err != nil {
		// The only failure is a fault plan the machine rejects; word it as
		// hbsp.WithFaults does on the session path.
		return nil, false, fmt.Errorf("hbsp: %w", err)
	}
	ent = &sweepEntry{sw: sw}
	s.sweeps.Put(key, ent)
	return ent, false, nil
}

// evaluateSwept runs one eligible point on its pooled evaluator and returns
// the run result, bit-identical to the session evaluation of the same point.
func (s *Server) evaluateSwept(ctx context.Context, req *PredictRequest, rp *resolvedProfile, w *WorkloadSpec, pt point, seed int64, deadline time.Time) (*sim.Result, error) {
	sch, err := s.schedule(w, pt.procs)
	if err != nil {
		return nil, err
	}

	key := sweepKey(rp, pt.procs, req)
	ent, pooled, err := s.sweepEvaluator(key, req, rp, seed)
	if err != nil {
		return nil, err
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	// A panic mid-point leaves the arena half-updated: take the entry out of
	// the pool on the way up, so the next request builds a fresh evaluator
	// (evaluate turns the re-raised panic into the request's error).
	defer func() {
		if r := recover(); r != nil {
			s.sweeps.Delete(key)
			panic(r)
		}
	}()

	if deadline.IsZero() {
		ent.sw.SetDeadline(0)
	} else {
		left := time.Until(deadline)
		if left <= 0 {
			return nil, fmt.Errorf("%w: request budget exhausted before evaluation", hbsp.ErrDeadline)
		}
		ent.sw.SetDeadline(left)
	}

	res, err := ent.sw.Run(ctx, rp.seeded(seed), sch, 1)
	if pooled {
		s.m.sweepPointsReused.Add(1)
	}
	parts := ent.sw.Stats().PartitionsReused
	s.m.partitionsReused.Add(parts - ent.parts)
	ent.parts = parts
	return res, err
}
