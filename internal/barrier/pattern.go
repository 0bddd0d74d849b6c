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
// or executed: sched.Schedule. A Pattern is a named wrapper around one: every
// collective generator returns its streamed schedule (a sched.Circulant, or
// a sched.Binomial tree) wrapped with its name, semantics and root, and the
// linear, tree, k-ary tree, ring and all-to-all barriers wrap the edge lists
// they emit (a sched.StaticStages). Shape decisions see through the wrapper
// (sched.AsCirculant, sched.ViewOf), so a wrapped circulant verifies, prices
// and collapses in O(stages). VerifySchedule, Predict, KnowledgeSized and
// Measure / Execute take a Pattern or any other schedule alike. The thesis
// writes a stage as a P×P boolean matrix; nothing here holds one, and the
// literal matrix products of the recursion live in the tests as the oracle
// the one recursion is checked against.
package barrier

import (
	"errors"
	"fmt"

	"hbsp/internal/sched"
)

// Pattern is a named collective schedule: an embedded sched.Schedule —
// NumProcs, NumStages and StageAt are promoted — tagged with the Semantics
// Verify checks and, for rooted collectives, the
// Root. The schedule is the collective's streamed generator schedule
// (O(stages) for the circulants, O(1) for the binomial trees) or a barrier's
// stage edge lists, O(P + edges) per stage where the thesis' matrix costs P².
// A *Pattern is a sched.Schedule and is immutable once built: concurrent
// Verify, Predict and Execute calls share it.
type Pattern struct {
	// Name identifies the algorithm ("linear", "dissemination", ...).
	Name string
	// Semantics declares the collective postcondition Verify checks. The zero
	// value is SemBarrier, so plain barrier patterns need not set it.
	Semantics Semantics
	// Root is the root process of rooted collectives (broadcast, reduce);
	// barrier-like semantics ignore it.
	Root int
	// Schedule is the wrapped schedule, whose type carries the shape the
	// evaluator reads: a sched.Circulant's is the direct evaluator's O(1)
	// eligibility test for symmetry-collapsed evaluation.
	sched.Schedule
}

// ErrInvalidPattern is returned for structurally broken patterns.
var ErrInvalidPattern = errors.New("barrier: invalid pattern")

// Validate checks the wrapped schedule (checkSchedule: present, with ranks
// and stages, an edge-list literal against the sched.Stage contract) and a
// rooted pattern's root.
func (pat *Pattern) Validate() error {
	if pat == nil || pat.Schedule == nil {
		return fmt.Errorf("%w: nil schedule", ErrInvalidPattern)
	}
	if err := checkSchedule(pat.Schedule); err != nil {
		return err
	}
	if (pat.Semantics == SemBroadcast || pat.Semantics == SemReduce) && (pat.Root < 0 || pat.Root >= pat.NumProcs()) {
		return fmt.Errorf("%w: root %d out of range for %d processes", ErrInvalidPattern, pat.Root, pat.NumProcs())
	}
	return nil
}

// Adjacency returns the stages as edge lists, each read once through
// StageAt.
func (pat *Pattern) Adjacency() []sched.Stage {
	stages := make([]sched.Stage, pat.NumStages())
	for k := range stages {
		stages[k] = pat.StageAt(k)
	}
	return stages
}

// ScheduleView returns the wrapped schedule (nil for a nil pattern): the
// schedule whose type internal/sched reads a Pattern's shape from.
func (pat *Pattern) ScheduleView() sched.Schedule {
	if pat == nil {
		return nil
	}
	return pat.Schedule
}

// Verify checks the pattern's structure (Validate) and then its semantics by
// the knowledge recursion, both inside VerifySchedule: the thesis' debug aid
// for automatically generated patterns, in O(signals·P/64) per stage — for a
// wrapped circulant O(stages·P/64), one reach row proving all P.
func (pat *Pattern) Verify() error {
	if pat == nil {
		return fmt.Errorf("%w: nil schedule", ErrInvalidPattern)
	}
	return VerifySchedule(pat, pat.Semantics, pat.Root)
}

// wrap names a generator's schedule, or passes its error on.
func wrap(name string, sem Semantics, root int, s sched.Schedule, err error) (*Pattern, error) {
	if err != nil {
		return nil, err
	}
	return &Pattern{Name: name, Semantics: sem, Root: root, Schedule: s}, nil
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
	return &Pattern{Name: name, Schedule: &sched.StaticStages{Procs: p, Stages: stages}}
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
	if p < 1 {
		return nil, fmt.Errorf("%w: dissemination barrier with p=%d", ErrInvalidPattern, p)
	}
	s, err := sched.Dissemination(p, nil)
	return wrap("dissemination", SemBarrier, 0, s, err)
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
