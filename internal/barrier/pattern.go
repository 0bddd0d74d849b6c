// Package barrier implements the thesis' representation of synchronization
// and collective algorithms as sequences of communication stages (Chapter 5)
// and everything built on it: schedule generators for the linear, tree,
// dissemination, k-ary tree, ring and all-to-all barriers and for the
// payload-carrying broadcast, reduce, allreduce, allgather and total-exchange
// collectives, the knowledge recursion that checks any schedule's correctness
// per collective semantics (VerifySchedule, generalizing Eqs. 5.1/5.2), a
// general pattern simulator with MPI_Startall/MPI_Waitall semantics (Fig.
// 5.5; Execute, which is mpi.ExecSchedule in the pattern simulator's tag
// space), and the latency-driven cost model with its critical-path search and
// the payload extension of Chapter 6.
//
// One type crosses package boundaries to be verified, priced, sized, cached
// or executed: sched.Schedule. The collectives are generated once, in
// streamed O(stages) form (Stream*); a Pattern is a named, semantics-tagged
// set of stage edge lists — such a stream materialized through StageAt, or a
// barrier that emits its edges directly — and VerifySchedule, Predict,
// KnowledgeSized and Measure / Execute take either. The thesis writes a stage
// as a P×P boolean matrix; nothing here holds one, and the literal matrix
// products of the recursion live in the tests as the oracle the one
// recursion is checked against.
package barrier

import (
	"errors"
	"fmt"

	"hbsp/internal/sched"
)

// Pattern is a named collective schedule: the stage edge lists of an embedded
// sched.StaticStages — Procs, Sym and Stages are promoted; Stages[s].Out[i]
// lists the ranks i signals in stage s and Stages[s].OutBytes[i] the payload
// of each of those edges in bytes (nil: pure signals) — tagged with the
// Semantics Verify checks and, for rooted collectives, the Root.
//
// A stage costs O(P + edges), where the thesis' matrix costs P², so a Pattern
// is affordable wherever its edges are; the Stream* generators describe the
// circulant collectives in O(stages) and the binomial trees in O(1), which is
// what to hand the evaluator for the largest runs. A *Pattern is a
// sched.Schedule and is immutable once built: concurrent Verify, Predict and
// Execute calls share it.
type Pattern struct {
	// Name identifies the algorithm ("linear", "dissemination", ...).
	Name string
	// Semantics declares the collective postcondition Verify checks. The zero
	// value is SemBarrier, so plain barrier patterns need not set it.
	Semantics Semantics
	// Root is the root process of rooted collectives (broadcast, reduce);
	// barrier-like semantics ignore it.
	Root int
	// StaticStages holds the stages. Its Sym hint (sched.SymCirculant for the
	// circulant generators) is the direct evaluator's O(1) eligibility test
	// for symmetry-collapsed evaluation; SymNone merely falls back to the
	// structural fingerprint, so leaving it unset is always safe — setting it
	// on a non-circulant pattern is not.
	sched.StaticStages
}

// ErrInvalidPattern is returned for structurally broken patterns.
var ErrInvalidPattern = errors.New("barrier: invalid pattern")

// Validate checks the stages against the sched.Stage contract
// (sched.StaticStages.Validate) and a rooted pattern's root.
func (pat *Pattern) Validate() error {
	if err := pat.StaticStages.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidPattern, err)
	}
	if (pat.Semantics == SemBroadcast || pat.Semantics == SemReduce) && (pat.Root < 0 || pat.Root >= pat.Procs) {
		return fmt.Errorf("%w: root %d out of range for %d processes", ErrInvalidPattern, pat.Root, pat.Procs)
	}
	return nil
}

// Adjacency returns the stages' edge lists: the pattern's own Stages. Kept for
// callers written when the stages were matrices.
func (pat *Pattern) Adjacency() []sched.Stage { return pat.Stages }

// ScheduleView returns the pattern itself: a *Pattern is a sched.Schedule.
// Kept for callers written when the two were different types.
func (pat *Pattern) ScheduleView() sched.Schedule { return pat }

// Verify checks the pattern's structure (Validate) and then its semantics by
// the knowledge recursion, both inside VerifySchedule: the thesis' debug aid
// for automatically generated patterns, in O(signals·P/64) per stage.
func (pat *Pattern) Verify() error {
	return VerifySchedule(pat, pat.Semantics, pat.Root)
}

// named returns the materializer of a streamed generator's schedule: every
// stage read once through StageAt, the symmetry hint carried over, under the
// given name, semantics and root.
func named(name string, sem Semantics, root int) func(sched.Schedule, error) (*Pattern, error) {
	return func(s sched.Schedule, err error) (*Pattern, error) {
		if err != nil {
			return nil, err
		}
		pat := &Pattern{Name: name, Semantics: sem, Root: root,
			StaticStages: sched.StaticStages{Procs: s.NumProcs(), Stages: make([]sched.Stage, s.NumStages())}}
		for k := range pat.Stages {
			pat.Stages[k] = s.StageAt(k)
		}
		if ss, ok := s.(sched.SymmetricSchedule); ok {
			pat.Sym = ss.Symmetry()
		}
		return pat, nil
	}
}

// emptyStage returns a stage over p ranks with no edges.
func emptyStage(p int) sched.Stage {
	return sched.Stage{Out: make([][]int, p), In: make([][]int, p)}
}

// barrierOf names pure-signal stages as a barrier; no stages at all become
// the single empty stage a one-process barrier is.
func barrierOf(name string, p int, stages []sched.Stage) *Pattern {
	if len(stages) == 0 {
		stages = []sched.Stage{emptyStage(p)}
	}
	return &Pattern{Name: name, StaticStages: sched.StaticStages{Procs: p, Stages: stages}}
}

// Linear returns the 2-stage linear (central counter) barrier: every process
// signals the root, then the root signals every process (Fig. 5.2 uses root 0).
func Linear(p, root int) (*Pattern, error) {
	if p < 1 || root < 0 || root >= p {
		return nil, fmt.Errorf("%w: linear barrier with p=%d root=%d", ErrInvalidPattern, p, root)
	}
	if p == 1 {
		return barrierOf("linear", p, nil), nil
	}
	arrive, release := emptyStage(p), emptyStage(p)
	others, toRoot := make([]int, 0, p-1), []int{root}
	for i := 0; i < p; i++ {
		if i != root {
			others = append(others, i)
			arrive.Out[i], release.In[i] = toRoot, toRoot
		}
	}
	arrive.In[root], release.Out[root] = others, others
	return barrierOf("linear", p, []sched.Stage{arrive, release}), nil
}

// Dissemination returns the ⌈log2 P⌉-stage dissemination barrier: in stage s,
// process i signals process (i + 2^s) mod P (Fig. 5.3).
func Dissemination(p int) (*Pattern, error) {
	return named("dissemination", SemBarrier, 0)(StreamDissemination(p))
}

// Tree returns the binary combining-tree barrier of Fig. 5.4: in arrival
// stage s, processes whose index is an odd multiple of 2^s signal the process
// 2^s below them; the release stages are the transposed arrival stages in
// reverse order. It is KAryTree(p, 2).
func Tree(p int) (*Pattern, error) {
	pat, err := KAryTree(p, 2)
	if err != nil {
		return nil, err
	}
	pat.Name = "tree"
	return pat, nil
}

// FullyConnected returns the single-stage all-to-all barrier, one of the two
// extreme patterns the thesis mentions as scaling (and predicting) poorly.
func FullyConnected(p int) (*Pattern, error) {
	if p < 1 {
		return nil, fmt.Errorf("%w: fully connected barrier with p=%d", ErrInvalidPattern, p)
	}
	st := emptyStage(p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j {
				st.Out[i] = append(st.Out[i], j)
				st.In[j] = append(st.In[j], i)
			}
		}
	}
	return barrierOf("all-to-all", p, []sched.Stage{st}), nil
}

// Ring returns the (2P−1)-stage token-ring barrier: a single token travels
// around the ring once to collect every arrival and most of a second time to
// release everyone. It is the other extreme pattern the thesis mentions:
// minimal concurrency and maximal stage count.
func Ring(p int) (*Pattern, error) {
	if p < 1 {
		return nil, fmt.Errorf("%w: ring barrier with p=%d", ErrInvalidPattern, p)
	}
	var stages []sched.Stage
	for k := 0; p > 1 && k < 2*p-1; k++ {
		st := emptyStage(p)
		from, to := k%p, (k+1)%p
		st.Out[from], st.In[to] = []int{to}, []int{from}
		stages = append(stages, st)
	}
	return barrierOf("ring", p, stages), nil
}
