package server

import (
	"context"
	"fmt"
	"time"

	"hbsp/internal/mpi"
	"hbsp/sched"
	"hbsp/sim"
	"hbsp/trace"
)

// The swept route: schedule-expressible collective points under the default
// engine, traced or not, skip the session machinery entirely and run as one
// point on a sched.SweepEvaluator built for them — the fault plan compiled
// against the point's machine, the arena taken from and returned to sched's
// evaluator pool, the point's deadline and recorder fixed at construction.
// Nothing is kept between points: an evaluator is the point's alone, so
// points never wait on each other and no finished request's trace or machine
// stays reachable. Results are bit-identical to the session path (the sweep
// evaluator's contract), so the rendered bytes are indistinguishable from the
// legacy evaluation they replace.

// scheduleKind reports whether a workload kind is one execution of a
// collective schedule (Server.schedule builds it).
func scheduleKind(kind string) bool {
	switch kind {
	case "barrier", "broadcast", "reduce", "allreduce", "allgather", "totalexchange":
		return true
	}
	return false
}

// evaluateSwept runs one collective point on a sweep evaluator of its own and
// returns the run result and, for a traced point, the recorder holding its
// trace — both bit-identical to the session evaluation of the same point.
func (s *Server) evaluateSwept(ctx context.Context, req *PredictRequest, rp *resolvedProfile, w *WorkloadSpec, pt point, seed int64, deadline time.Time) (*sim.Result, *trace.Recorder, error) {
	sch, err := s.schedule(w, pt.procs)
	if err != nil {
		return nil, nil, err
	}
	left, err := budgetLeft(deadline)
	if err != nil {
		return nil, nil, err
	}
	o := runOptions(req)
	rec := newRecorder(req, w, pt)
	sw, err := sched.NewSweepEvaluator(rp.seeded(seed), sched.SweepOptions{
		AckSends:         o.AckSends,
		SymmetryCollapse: o.SymmetryCollapse,
		Faults:           o.Faults,
		// The gate-inline collective paths this replaces bill nothing on
		// stages where a rank has no edges, and tag stage s as the flood does,
		// so a traced point records the events the session's would.
		ComputeEmpty: false,
		TagBase:      mpi.FloodTagBase,
		Recorder:     rec,
		Deadline:     left, // 0: the evaluator's default
	})
	if err != nil {
		// The only failure is a fault plan the machine rejects; word it as
		// hbsp.WithFaults does on the session path.
		return nil, nil, fmt.Errorf("hbsp: %w", err)
	}
	defer sw.Release()
	res, err := sw.Run(ctx, nil, sch, 1)
	return res, rec, err
}
