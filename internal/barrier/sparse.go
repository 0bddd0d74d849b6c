package barrier

import (
	"fmt"
	"slices"

	"hbsp/internal/sched"
)

// checkSchedule refuses what no consumer can walk: a missing schedule (a nil
// pointer handed over as one included), one without ranks or stages, and an
// edge-list literal that breaks the sched.Stage contract (Validate) — a rank
// out of range, a self-signal, a size row that does not match its edges, or
// In rows that are not the row-major scan of Out.
func checkSchedule(s sched.Schedule) error {
	switch v := s.(type) {
	case nil:
		return fmt.Errorf("%w: nil schedule", ErrInvalidPattern)
	case *Pattern:
		if v == nil {
			return fmt.Errorf("%w: nil schedule", ErrInvalidPattern)
		}
		return v.Validate()
	case *sched.StaticStages:
		if v == nil {
			return fmt.Errorf("%w: nil schedule", ErrInvalidPattern)
		}
		if err := v.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidPattern, err)
		}
		return nil
	}
	if s.NumProcs() < 1 || s.NumStages() == 0 {
		return fmt.Errorf("%w: %d processes, %d stages", ErrInvalidPattern, s.NumProcs(), s.NumStages())
	}
	return nil
}

// VerifySchedule runs the knowledge recursion over any schedule and reports
// whether it provably establishes the semantics' postcondition when the last
// stage completes:
//
//	K_0 = I + S_0
//	K_i = K_{i−1} + K_{i−1}·S_i
//
// For a barrier (and the barrier-like allreduce/allgather/total-exchange
// flooding semantics) the final K must contain no zero element; a broadcast
// only requires the root's row to be full, a reduction only the root's
// column. The recursion is sched.ReachSet's — the sets the direct flood hands
// out as data — so a Pattern and a streamed schedule of the same stages are
// checked by the same code. Non-rooted semantics ignore root.
func VerifySchedule(s sched.Schedule, sem Semantics, root int) error {
	if err := checkSchedule(s); err != nil {
		return err
	}
	p := s.NumProcs()
	if (sem == SemBroadcast || sem == SemReduce) && (root < 0 || root >= p) {
		return fmt.Errorf("%w: root %d out of range for %d processes", ErrInvalidPattern, root, p)
	}
	reach := sched.ReachOf(s)
	// Every rank of a circulant schedule knows what rank 0 knows, moved by its
	// own index: a full set there is a full set everywhere, and a gap there
	// is a gap in every row and every column, which checkReach then names.
	if _, ok := s.(sched.CirculantSchedule); ok && reach.Count(0) == p {
		return nil
	}
	return checkReach(p, sem, root, reach.Has)
}

// KnowledgeSized returns the schedule's stages with every out-edge of rank i
// sized at headerBytes + |K_i|·bytesPerOrigin, K_i being what the knowledge
// recursion says i holds when the stage begins: the message-size model of a
// schedule that floods — each signal forwards everything its sender has
// accumulated — which is the BSP count exchange of Section 6.5 (one P-entry
// count row per origin) and the dissemination allgather (one block per
// origin). The input is only read. A circulant schedule's counts are the same
// on every rank, so it comes back a circulant; anything else comes back as
// materialized stages sharing the input's edge lists, with its symmetry hint.
func KnowledgeSized(s sched.Schedule, headerBytes, bytesPerOrigin int) sched.Schedule {
	p, n := s.NumProcs(), s.NumStages()
	known, v := sched.NewReachSet(s), sched.ViewOf(s)
	if cs, ok := s.(sched.CirculantSchedule); ok {
		offsets, sizes := make([]int, n), make([]int, n)
		for k := range offsets {
			offsets[k], _ = cs.CirculantStage(k)
			sizes[k] = headerBytes + known.Count(0)*bytesPerOrigin
			v.Load(k)
			known.Step(&v)
		}
		c, err := sched.NewCirculant(p, offsets, sizes)
		if err != nil {
			panic(err) // one size per offset over the ranks of a schedule: cannot be refused
		}
		return c
	}
	out := &sched.StaticStages{Procs: p, Stages: make([]sched.Stage, n)}
	if ss, ok := s.(sched.SymmetricSchedule); ok {
		out.Sym = ss.Symmetry()
	}
	for k := range out.Stages {
		st := s.StageAt(k)
		outBytes := make([][]int, p)
		for i, outs := range st.Out {
			if len(outs) > 0 {
				outBytes[i] = slices.Repeat([]int{headerBytes + known.Count(i)*bytesPerOrigin}, len(outs))
			}
		}
		out.Stages[k] = sched.Stage{Out: st.Out, In: st.In, OutBytes: outBytes}
		v.Load(k)
		known.Step(&v)
	}
	return out
}

// checkReach verifies a semantics' postcondition against final reach sets:
// every pair must be covered for the barrier-like collectives, only the
// root's row for a broadcast, only the root's column for a reduction. Rooted
// semantics restrict the scan accordingly, so the check never dominates the
// O(signals) reach recursion at large P.
func checkReach(p int, sem Semantics, root int, knows func(j, i int) bool) error {
	iLo, iHi, jLo, jHi := 0, p, 0, p
	switch sem {
	case SemBroadcast:
		iLo, iHi = root, root+1
	case SemReduce:
		jLo, jHi = root, root+1
	}
	for i := iLo; i < iHi; i++ {
		for j := jLo; j < jHi; j++ {
			if knows(j, i) {
				continue
			}
			if sem == SemBarrier {
				return fmt.Errorf("%w: process %d cannot prove the arrival of process %d", ErrInvalidPattern, j, i)
			}
			return fmt.Errorf("%w: %s schedule never delivers the contribution of process %d to process %d",
				ErrInvalidPattern, sem, i, j)
		}
	}
	return nil
}
