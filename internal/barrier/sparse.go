package barrier

import (
	"fmt"

	"hbsp/internal/sched"
)

// StageAdj is the sparse per-row adjacency of one stage: Out[i] lists the
// destinations process i signals, In[j] lists the sources signalling j, and
// OutBytes[i][k] is the payload size of the edge i→Out[i][k] (nil when the
// pattern carries no payload). It is the representation Verify, Predict and
// Execute evaluate, so all run in O(signals) per stage instead of the O(P³)
// dense matrix products of the literal Eq. 5.1/5.2 formulation (kept as
// VerifyDense for reference and ablation). It is an alias for the
// discrete-event evaluator's stage type: a pattern's cached adjacency is what
// its StageAt hands out.
type StageAdj = sched.Stage

// Adjacency returns the sparse adjacency of every stage, building and caching
// it on first use. The build is guarded by a sync.Once, so concurrent callers
// (e.g. simulated processes sharing one verified schedule) are race-free. The
// cache assumes the Stages and Payload slices are not mutated after the first
// call; pattern constructors in this package and in internal/adapt finish all
// stage and payload edits before the pattern escapes.
func (pat *Pattern) Adjacency() []StageAdj {
	pat.adjOnce.Do(func() {
		p := pat.Procs
		adj := make([]StageAdj, len(pat.Stages))
		for s, st := range pat.Stages {
			out := make([][]int, p)
			in := make([][]int, p)
			var outBytes [][]int
			if pat.Payload != nil && pat.Payload[s] != nil {
				outBytes = make([][]int, p)
			}
			for i := 0; i < p; i++ {
				for _, j := range st.RowTrue(i) {
					out[i] = append(out[i], j)
					in[j] = append(in[j], i)
					if outBytes != nil {
						outBytes[i] = append(outBytes[i], int(pat.Payload[s].At(i, j)))
					}
				}
			}
			adj[s] = StageAdj{Out: out, In: in, OutBytes: outBytes}
		}
		pat.adj = adj
	})
	return pat.adj
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
// out as data — so a dense Pattern and a streamed schedule of the same stages
// are checked by the same code. Non-rooted semantics ignore root.
func VerifySchedule(s sched.Schedule, sem Semantics, root int) error {
	p := s.NumProcs()
	if p < 1 || s.NumStages() == 0 {
		return fmt.Errorf("%w: %d processes, %d stages", ErrInvalidPattern, p, s.NumStages())
	}
	if (sem == SemBroadcast || sem == SemReduce) && (root < 0 || root >= p) {
		return fmt.Errorf("%w: root %d out of range for %d processes", ErrInvalidPattern, root, p)
	}
	return checkReach(p, sem, root, sched.ReachOf(s).Has)
}

// EachStageKnowing steps the knowledge recursion through the pattern, calling
// fn with every stage and the reach sets as they stand when it begins
// (known.Count(j) = |K_j|): what a rank snapshots at each stage, which the
// accumulating payload models and the schedule synchronizer price.
func (pat *Pattern) EachStageKnowing(fn func(s int, st StageAdj, known *sched.ReachSet)) {
	known := sched.NewReachSet(pat.Procs)
	v := sched.ViewOf(pat)
	for s, st := range pat.Adjacency() {
		fn(s, st, known)
		v.Load(s)
		known.Step(&v)
	}
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
