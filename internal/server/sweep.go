package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hbsp/internal/mpi"
	"hbsp/sched"
	"hbsp/sim"
	"hbsp/trace"
)

// The sweep path: schedule-expressible collective points under the default
// engine, traced or not, skip the session machinery entirely and run on a
// pooled sched.SweepEvaluator — a kept evaluator arena, the fault plan compiled
// once, memoized symmetry partitions. Evaluators are keyed by the profile's
// *base* fingerprint (before any LogGP scaling) plus everything an evaluator
// fixes at construction — rank count, ack mode, collapse mode, fault plan —
// so all points of one NDJSON sweep ride the same evaluator, and so do
// coalesced single-point misses against the same profile arriving across
// requests. What belongs to one point — its deadline, its recorder — is set
// under the entry's mutex before the point runs. Uploaded machines share one
// evaluator per construction tuple
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

// scheduleKind reports whether a workload kind is one execution of a
// collective schedule (Server.schedule builds it).
func scheduleKind(kind string) bool {
	switch kind {
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
	o := runOptions(req)
	opt := sched.SweepOptions{
		AckSends:         o.AckSends,
		SymmetryCollapse: o.SymmetryCollapse,
		Faults:           o.Faults,
		// The gate-inline collective paths this replaces bill nothing on
		// stages where a rank has no edges, and tag stage s as the flood does,
		// so a traced point records the events the session's would.
		ComputeEmpty: false,
		TagBase:      mpi.FloodTagBase,
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

// evaluateSwept runs one collective point on its pooled evaluator and returns
// the run result and, for a traced point, the recorder holding its trace —
// both bit-identical to the session evaluation of the same point.
func (s *Server) evaluateSwept(ctx context.Context, req *PredictRequest, rp *resolvedProfile, w *WorkloadSpec, pt point, seed int64, deadline time.Time) (*sim.Result, *trace.Recorder, error) {
	sch, err := s.schedule(w, pt.procs)
	if err != nil {
		return nil, nil, err
	}

	key := sweepKey(rp, pt.procs, req)
	ent, pooled, err := s.sweepEvaluator(key, req, rp, seed)
	if err != nil {
		return nil, nil, err
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

	left, err := budgetLeft(deadline)
	if err != nil {
		return nil, nil, err
	}
	ent.sw.SetDeadline(left)
	// The recorder is this point's alone: requests that share the entry are
	// serialized by its mutex, and the entry must not keep a finished
	// request's trace alive.
	rec := newRecorder(req, w, pt)
	ent.sw.SetRecorder(rec)
	defer ent.sw.SetRecorder(nil)

	res, err := ent.sw.Run(ctx, rp.seeded(seed), sch, 1)
	if pooled {
		s.m.sweepPointsReused.Add(1)
	}
	parts := ent.sw.Stats().PartitionsReused
	s.m.partitionsReused.Add(parts - ent.parts)
	ent.parts = parts
	return res, rec, err
}
