package server

import (
	"context"
	"fmt"

	"hbsp"
	"hbsp/collective"
	"hbsp/internal/barrier"
	"hbsp/internal/bsp"
	"hbsp/internal/mpi"
	"hbsp/internal/sched"
	"hbsp/internal/stencil"
	"hbsp/sim"
)

// Workload defaults.
const (
	defaultBytes          = 8
	defaultSupersteps     = 3
	defaultComputeSeconds = 5e-6
	defaultGrid           = 128
	defaultIterations     = 2
)

// normalizeWorkload validates a WorkloadSpec against the point's rank count
// and fills the defaults in place (the filled spec is what cache keys are
// computed from, so "bytes omitted" and "bytes: 8" share an entry).
func normalizeWorkload(w *WorkloadSpec, procs int) error {
	switch w.Kind {
	case "barrier":
		switch w.Variant {
		case "":
			w.Variant = "dissemination"
		case "dissemination", "tree", "linear":
		default:
			return badRequestf("unknown barrier variant %q (dissemination, tree, linear)", w.Variant)
		}
	case "broadcast", "reduce", "allreduce", "allgather", "totalexchange":
		if w.Variant != "" {
			return badRequestf("workload %q has no variants", w.Kind)
		}
		if w.Bytes == 0 {
			w.Bytes = defaultBytes
		}
		if w.Bytes < 0 {
			return badRequestf("bytes must be >= 0, got %d", w.Bytes)
		}
		if w.Kind == "broadcast" || w.Kind == "reduce" {
			if w.Root < 0 || w.Root >= procs {
				return badRequestf("root %d out of range [0,%d)", w.Root, procs)
			}
		} else if w.Root != 0 {
			return badRequestf("workload %q has no root", w.Kind)
		}
	case "sync":
		switch w.Variant {
		case "":
			w.Variant = "dissemination"
		case "dissemination", "schedule":
		default:
			return badRequestf("unknown sync variant %q (dissemination, schedule)", w.Variant)
		}
		if w.Supersteps == 0 {
			w.Supersteps = defaultSupersteps
		}
		if w.Supersteps < 1 {
			return badRequestf("supersteps must be >= 1, got %d", w.Supersteps)
		}
		if w.ComputeSeconds == 0 {
			w.ComputeSeconds = defaultComputeSeconds
		}
		if w.ComputeSeconds < 0 {
			return badRequestf("computeSeconds must be >= 0, got %g", w.ComputeSeconds)
		}
		if procs < 2 {
			return badRequestf("the sync workload needs at least 2 ranks")
		}
	case "stencil":
		if w.Variant != "" {
			return badRequestf("workload %q has no variants", w.Kind)
		}
		if w.Grid == 0 {
			w.Grid = defaultGrid
		}
		if w.Iterations == 0 {
			w.Iterations = defaultIterations
		}
		if w.Grid < 3 {
			return badRequestf("grid must be >= 3, got %d", w.Grid)
		}
		if w.Iterations < 1 {
			return badRequestf("iterations must be >= 1, got %d", w.Iterations)
		}
		if _, err := stencil.Decompose(w.Grid, procs); err != nil {
			return badRequestf("%v", err)
		}
	case "program":
		if w.Variant != "" {
			return badRequestf("workload %q has no variants", w.Kind)
		}
		if len(w.Ranks) == 0 {
			return badRequestf("program workload needs ranks")
		}
		if len(w.Ranks) != procs {
			return badRequestf("program has %d rank streams, point has procs=%d", len(w.Ranks), procs)
		}
		if err := validateOps(w.Ranks); err != nil {
			return err
		}
	case "":
		return badRequestf("workload.kind is required")
	default:
		return badRequestf("unknown workload kind %q", w.Kind)
	}
	return nil
}

// validateOps checks a program workload's op-streams: known ops, peers in
// range, request slots produced in isend/irecv order and consumed by "wait"
// exactly once.
func validateOps(ranks [][]OpSpec) error {
	p := len(ranks)
	for rank, ops := range ranks {
		next := 0
		waited := map[int]bool{}
		for i, op := range ops {
			switch op.Op {
			case "compute":
				if op.Seconds < 0 {
					return badRequestf("rank %d op %d: compute seconds must be >= 0", rank, i)
				}
			case "isend", "post":
				if op.To < 0 || op.To >= p {
					return badRequestf("rank %d op %d: to=%d out of range [0,%d)", rank, i, op.To, p)
				}
				if op.Bytes < 0 {
					return badRequestf("rank %d op %d: bytes must be >= 0", rank, i)
				}
				if op.Op == "isend" {
					next++
				}
			case "irecv":
				if op.From < 0 || op.From >= p {
					return badRequestf("rank %d op %d: from=%d out of range [0,%d)", rank, i, op.From, p)
				}
				next++
			case "wait":
				if op.Req < 0 || op.Req >= next {
					return badRequestf("rank %d op %d: wait names request slot %d, only %d allocated so far", rank, i, op.Req, next)
				}
				if waited[op.Req] {
					return badRequestf("rank %d op %d: request slot %d waited twice", rank, i, op.Req)
				}
				waited[op.Req] = true
			default:
				return badRequestf("rank %d op %d: unknown op %q (compute, isend, irecv, post, wait)", rank, i, op.Op)
			}
		}
		if len(waited) != next {
			return badRequestf("rank %d leaves %d request slots unwaited", rank, next-len(waited))
		}
	}
	return nil
}

// buildProgram compiles a validated program workload into a sim.Program.
func buildProgram(ranks [][]OpSpec) *sim.Program {
	pr := sim.NewProgram(len(ranks))
	for rank, ops := range ranks {
		b := pr.Rank(rank)
		for _, op := range ops {
			switch op.Op {
			case "compute":
				b.Compute(op.Seconds)
			case "isend":
				b.Isend(op.To, op.Tag, op.Bytes)
			case "post":
				b.Post(op.To, op.Tag, op.Bytes)
			case "irecv":
				b.Irecv(op.From, op.Tag)
			case "wait":
				b.Wait(sim.Req(op.Req))
			}
		}
	}
	return pr
}

// runWorkload executes one normalized workload on a session. In production
// the collective, sync and stencil cases are reached only under engine
// "concurrent" or, for sync and stencil, on a machine the session refuses
// (routeOf); the cross-route test reaches them for every point.
func (s *Server) runWorkload(ctx context.Context, sess *hbsp.Session, w *WorkloadSpec, procs int) (*sim.Result, error) {
	switch w.Kind {
	case "barrier", "broadcast", "reduce", "allreduce", "allgather", "totalexchange":
		pat, err := s.schedule(w, procs)
		if err != nil {
			return nil, err
		}
		res, err := sess.RunMPI(ctx, func(c *mpi.Comm) error {
			switch w.Kind {
			case "barrier":
				return c.BarrierSchedule(pat)
			case "broadcast":
				_, err := c.BcastSchedule(pat, w.Root, float64(c.Rank()))
				return err
			case "reduce":
				_, err := c.ReduceSchedule(pat, w.Root, float64(c.Rank()), mpi.OpSum)
				return err
			case "allreduce":
				_, err := c.AllreduceSchedule(pat, float64(c.Rank()), mpi.OpSum)
				return err
			case "allgather":
				_, err := c.AllgatherSchedule(pat, float64(c.Rank()))
				return err
			default: // totalexchange
				blocks := make([]any, procs)
				for i := range blocks {
					blocks[i] = float64(c.Rank()*procs + i)
				}
				_, err := c.TotalExchangeSchedule(pat, blocks)
				return err
			}
		})
		return res, err

	case "sync", "stencil":
		sp, err := staticWorkload(w, procs)
		if err != nil {
			return nil, err
		}
		return sess.RunBSP(ctx, sp.Program())

	case "program":
		return sess.RunProgram(ctx, buildProgram(w.Ranks))
	}
	return nil, fmt.Errorf("server: unreachable workload kind %q", w.Kind)
}

// staticWorkload is a sync or stencil point as the one description both ways
// of running it read: the session replays it, evaluateSync prices it.
func staticWorkload(w *WorkloadSpec, procs int) (*bsp.Static, error) {
	if w.Kind == "stencil" {
		return stencil.Static(procs, stencil.Config{N: w.Grid, Iterations: w.Iterations, C: 0.25, Synthetic: true}, 1)
	}
	// The reference BSP workload: per superstep, placement-skewed compute
	// (four classes) and one put around a ring whose stride grows by one each
	// superstep.
	base := w.ComputeSeconds
	return &bsp.Static{
		Supersteps: w.Supersteps,
		Step: func(step, pid, p int, ops sched.Ops) {
			if step < w.Supersteps {
				ops.Compute(sched.Work{Seconds: base * float64(1+(pid+step)%4)})
				ops.Put((pid+1+step)%p, 1)
			}
		},
	}, nil
}

// synchronizer returns the synchronizer ending a BSP workload's supersteps:
// the default dissemination exchange, or for the sync workload's "schedule"
// variant the cached dissemination schedule wrapped as one.
func (s *Server) synchronizer(w *WorkloadSpec, procs int) (bsp.Synchronizer, error) {
	if w.Variant != "schedule" {
		return bsp.DefaultSynchronizer(), nil
	}
	sch, err := s.schedule(w, procs)
	if err != nil {
		return nil, err
	}
	sync, err := bsp.NewScheduleSynchronizer(sch)
	if err != nil {
		return nil, fmt.Errorf("server: %s:%s P=%d: %v", w.Kind, w.Variant, procs, err)
	}
	return sync, nil
}

// schedule returns a point's verified schedule from the server's one schedule
// cache, which every route reads: streamed generator schedules — a total
// exchange at P=1024 is 16 KB where its stage matrices would be 9.7 GB — and,
// for the tree and linear barriers, their O(P·stages) edge lists.
// Verification reads stage structure only, so the cache also holds a marker
// per verified (kind, variant, procs, root). Cached values are immutable and
// shared between runs.
func (s *Server) schedule(w *WorkloadSpec, procs int) (sched.Schedule, error) {
	structure := fmt.Sprintf("%s:%s/p%d/root%d", w.Kind, w.Variant, procs, w.Root)
	key := fmt.Sprintf("schedule/%s/b%d", structure, w.Bytes)
	if sch, ok := s.schedules.Get(key); ok {
		return sch.(sched.Schedule), nil
	}
	var (
		sch sched.Schedule
		err error
		sem = collective.SemBarrier
	)
	switch w.Kind + ":" + w.Variant {
	case "broadcast:":
		sem = collective.SemBroadcast
		sch, err = collective.StreamBroadcast(procs, w.Root, w.Bytes)
	case "reduce:":
		sem = collective.SemReduce
		sch, err = collective.StreamReduce(procs, w.Root, w.Bytes)
	case "allreduce:":
		sem = collective.SemAllReduce
		sch, err = collective.StreamAllReduce(procs, w.Bytes)
	case "allgather:":
		sem = collective.SemAllGather
		sch, err = collective.StreamAllGather(procs, w.Bytes)
	case "totalexchange:":
		sem = collective.SemTotalExchange
		sch, err = collective.StreamTotalExchange(procs, w.Bytes)
	case "barrier:dissemination", "sync:schedule":
		sch, err = collective.StreamDissemination(procs)
	case "barrier:tree":
		sch, err = collective.Tree(procs)
	case "barrier:linear":
		sch, err = collective.Linear(procs, 0)
	default:
		return nil, fmt.Errorf("server: no schedule for workload %s:%s", w.Kind, w.Variant)
	}
	if err != nil {
		return nil, badRequestf("%s:%s with P=%d: %v", w.Kind, w.Variant, procs, err)
	}
	if _, ok := s.schedules.Get("verified/" + structure); !ok {
		if err := barrier.VerifySchedule(sch, sem, w.Root); err != nil {
			return nil, fmt.Errorf("server: %s:%s P=%d failed verification: %v", w.Kind, w.Variant, procs, err)
		}
		s.schedules.Put("verified/"+structure, true)
	}
	s.schedules.Put(key, sch)
	return sch, nil
}
