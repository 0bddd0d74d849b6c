// Package barrier implements the thesis' matrix representation of
// synchronization and collective algorithms (Chapter 5) and everything built
// on it: schedule generators for the linear, tree and dissemination barriers
// and for the payload-carrying broadcast, reduce, allreduce, allgather and
// total-exchange collectives — each as the thesis' dense literal (Pattern)
// and, for the collectives, in streamed O(stages) form (Stream*) — the
// knowledge recursion that checks any schedule's correctness per collective
// semantics (VerifySchedule, generalizing Eqs. 5.1/5.2), a general pattern
// simulator with MPI_Startall/MPI_Waitall semantics (Fig. 5.5), and the
// latency-driven cost model with its critical-path search and the payload
// extension of Chapter 6.
//
// One type crosses package boundaries to be verified, priced, sized, cached
// or executed: sched.Schedule. A Pattern is one implementation — its stage
// matrices read through their cached sparse adjacency (StageAdj) — the
// streamed generators are others, and VerifySchedule, Predict, KnowledgeSized
// and Measure / Execute take any of them. The literal matrix products of the
// recursion survive as VerifyDense, the reference the one recursion is tested
// against.
package barrier

import (
	"errors"
	"fmt"
	"sync"

	"hbsp/internal/matrix"
	"hbsp/internal/sched"
)

// Pattern is the thesis' dense literal of a communication schedule: an ordered
// sequence of P×P boolean stage matrices, where Stages[s].At(i, j) means
// "process i signals process j during stage s". An optional payload matrix per
// stage gives the message sizes in bytes (zero size = pure signal), which the
// Chapter 6 synchronization-with-data extension uses.
//
// A *Pattern is a sched.Schedule (StageAt over the cached adjacency, plus the
// Symmetry hint): it is verified, cached and executed wherever a schedule is
// wanted, with no adapter in between. At stages·9·P² bytes it is the wrong
// thing to hold for a large collective — the Stream* generators describe the
// same stages in O(stages), and the cost model, the pattern simulator and the
// schedule synchronizer take either; what still needs the matrices themselves
// is VerifyDense and internal/adapt's stage editing.
type Pattern struct {
	// Name identifies the algorithm ("linear", "dissemination", ...).
	Name string
	// Procs is the number of participating processes.
	Procs int
	// Stages holds one incidence matrix per stage. Stage edits must finish
	// before the first Verify/Predict/Adjacency call: those cache the sparse
	// adjacency permanently (see Adjacency).
	Stages []*matrix.Bool
	// Payload optionally holds per-stage, per-edge payload sizes in bytes.
	// When nil, all signals carry no payload. When non-nil it must have the
	// same length as Stages.
	Payload []*matrix.Dense
	// Semantics declares the collective postcondition Verify checks. The zero
	// value is SemBarrier, so plain barrier patterns need not set it.
	Semantics Semantics
	// Root is the root process of rooted collectives (broadcast, reduce);
	// barrier-like semantics ignore it.
	Root int
	// Sym declares the pattern's rank symmetry (sched.SymCirculant for the
	// circulant generators: dissemination, total exchange, allreduce,
	// allgather). The direct evaluator uses it as the O(1) eligibility hint
	// for symmetry-collapsed evaluation; SymNone (the zero value) merely
	// falls back to the structural fingerprint, so leaving it unset is always
	// safe — setting it on a non-circulant pattern is not.
	Sym sched.Symmetry

	// adj caches the sparse per-stage adjacency built by Adjacency, guarded
	// by adjOnce so concurrent Verify/Predict calls on a shared pattern are
	// race-free.
	adjOnce sync.Once
	adj     []StageAdj
}

// ErrInvalidPattern is returned for structurally broken patterns.
var ErrInvalidPattern = errors.New("barrier: invalid pattern")

// Validate checks the structural consistency of the pattern: square stage
// matrices of the right size, no self-signals, and payload shapes that match.
func (pat *Pattern) Validate() error {
	if pat.Procs < 1 {
		return fmt.Errorf("%w: %d processes", ErrInvalidPattern, pat.Procs)
	}
	if len(pat.Stages) == 0 {
		return fmt.Errorf("%w: no stages", ErrInvalidPattern)
	}
	if pat.Payload != nil && len(pat.Payload) != len(pat.Stages) {
		return fmt.Errorf("%w: %d payload matrices for %d stages", ErrInvalidPattern, len(pat.Payload), len(pat.Stages))
	}
	if (pat.Semantics == SemBroadcast || pat.Semantics == SemReduce) && (pat.Root < 0 || pat.Root >= pat.Procs) {
		return fmt.Errorf("%w: root %d out of range for %d processes", ErrInvalidPattern, pat.Root, pat.Procs)
	}
	for s, st := range pat.Stages {
		if st == nil || st.Rows() != pat.Procs || st.Cols() != pat.Procs {
			return fmt.Errorf("%w: stage %d has wrong shape", ErrInvalidPattern, s)
		}
		for i := 0; i < pat.Procs; i++ {
			if st.At(i, i) {
				return fmt.Errorf("%w: stage %d contains a self-signal at process %d", ErrInvalidPattern, s, i)
			}
		}
		if pat.Payload != nil {
			pm := pat.Payload[s]
			if pm == nil || pm.Rows() != pat.Procs || pm.Cols() != pat.Procs {
				return fmt.Errorf("%w: payload matrix %d has wrong shape", ErrInvalidPattern, s)
			}
		}
	}
	return nil
}

// NumStages returns the number of stages.
func (pat *Pattern) NumStages() int { return len(pat.Stages) }

// NumProcs returns the number of participating processes.
func (pat *Pattern) NumProcs() int { return pat.Procs }

// StageAt returns stage s of the cached sparse adjacency (not to be mutated);
// with NumProcs and NumStages it makes a *Pattern a sched.Schedule.
func (pat *Pattern) StageAt(s int) sched.Stage { return pat.Adjacency()[s] }

// Symmetry returns the declared rank symmetry (sched.SymmetricSchedule).
func (pat *Pattern) Symmetry() sched.Symmetry { return pat.Sym }

// ScheduleView returns the pattern itself: a *Pattern is a sched.Schedule.
// Kept for callers written when the two were different types.
func (pat *Pattern) ScheduleView() sched.Schedule { return pat }

// Signals returns the total number of signals across all stages.
func (pat *Pattern) Signals() int {
	n := 0
	for _, st := range pat.Stages {
		n += st.CountTrue()
	}
	return n
}

// Verify checks the pattern's structure (Validate) and then its semantics by
// the knowledge recursion, both inside VerifySchedule: the thesis' debug aid
// for automatically generated patterns, evaluated on the sparse stage
// adjacency in O(signals·P/64) per stage.
func (pat *Pattern) Verify() error {
	return VerifySchedule(pat, pat.Semantics, pat.Root)
}

// VerifyDense is Verify evaluated with the literal dense matrix products of
// Eqs. 5.1/5.2, O(P³) per stage. It exists as the reference implementation
// the sparse path is tested and benchmarked against.
func (pat *Pattern) VerifyDense() error {
	if err := pat.Validate(); err != nil {
		return err
	}
	p := pat.Procs
	// K(i, j) counts the signals process j has received that prove process
	// i's arrival. Knowledge starts as the identity.
	k := matrix.Identity(p)
	for _, st := range pat.Stages {
		sd := st.ToDense()
		spread, err := k.Mul(sd)
		if err != nil {
			return err
		}
		k, err = k.AddTo(spread)
		if err != nil {
			return err
		}
	}
	return checkReach(p, pat.Semantics, pat.Root, func(j, i int) bool { return k.At(i, j) != 0 })
}

// Linear returns the 2-stage linear (central counter) barrier: every process
// signals the root, then the root signals every process (Fig. 5.2 uses root 0).
func Linear(p, root int) (*Pattern, error) {
	if p < 1 || root < 0 || root >= p {
		return nil, fmt.Errorf("%w: linear barrier with p=%d root=%d", ErrInvalidPattern, p, root)
	}
	arrive := matrix.NewBool(p, p)
	release := matrix.NewBool(p, p)
	for i := 0; i < p; i++ {
		if i == root {
			continue
		}
		arrive.Set(i, root, true)
		release.Set(root, i, true)
	}
	pat := &Pattern{Name: "linear", Procs: p, Stages: []*matrix.Bool{arrive, release}}
	if p == 1 {
		pat.Stages = []*matrix.Bool{matrix.NewBool(1, 1)}
	}
	return pat, nil
}

// Dissemination returns the ⌈log2 P⌉-stage dissemination barrier: in stage s,
// process i signals process (i + 2^s) mod P (Fig. 5.3).
func Dissemination(p int) (*Pattern, error) {
	if p < 1 {
		return nil, fmt.Errorf("%w: dissemination barrier with p=%d", ErrInvalidPattern, p)
	}
	var stages []*matrix.Bool
	for dist := 1; dist < p; dist *= 2 {
		st := matrix.NewBool(p, p)
		for i := 0; i < p; i++ {
			st.Set(i, (i+dist)%p, true)
		}
		stages = append(stages, st)
	}
	if len(stages) == 0 {
		stages = []*matrix.Bool{matrix.NewBool(p, p)}
	}
	return &Pattern{Name: "dissemination", Procs: p, Stages: stages, Sym: sched.SymCirculant}, nil
}

// Tree returns the binary combining-tree barrier of Fig. 5.4: in arrival
// stage s, processes whose index is an odd multiple of 2^s signal the process
// 2^s below them; the release stages are the transposed arrival stages in
// reverse order.
func Tree(p int) (*Pattern, error) {
	if p < 1 {
		return nil, fmt.Errorf("%w: tree barrier with p=%d", ErrInvalidPattern, p)
	}
	var arrive []*matrix.Bool
	for dist := 1; dist < p; dist *= 2 {
		st := matrix.NewBool(p, p)
		used := false
		for i := dist; i < p; i += 2 * dist {
			st.Set(i, i-dist, true)
			used = true
		}
		if used {
			arrive = append(arrive, st)
		}
	}
	stages := make([]*matrix.Bool, 0, 2*len(arrive))
	stages = append(stages, arrive...)
	for s := len(arrive) - 1; s >= 0; s-- {
		stages = append(stages, arrive[s].Transpose())
	}
	if len(stages) == 0 {
		stages = []*matrix.Bool{matrix.NewBool(p, p)}
	}
	return &Pattern{Name: "tree", Procs: p, Stages: stages}, nil
}

// FullyConnected returns the single-stage all-to-all barrier, one of the two
// extreme patterns the thesis mentions as scaling (and predicting) poorly.
func FullyConnected(p int) (*Pattern, error) {
	if p < 1 {
		return nil, fmt.Errorf("%w: fully connected barrier with p=%d", ErrInvalidPattern, p)
	}
	st := matrix.NewBool(p, p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j {
				st.Set(i, j, true)
			}
		}
	}
	return &Pattern{Name: "all-to-all", Procs: p, Stages: []*matrix.Bool{st}}, nil
}

// Ring returns the (2P−1)-stage token-ring barrier: a single token travels
// around the ring once to collect every arrival and most of a second time to
// release everyone. It is the other extreme pattern the thesis mentions:
// minimal concurrency and maximal stage count.
func Ring(p int) (*Pattern, error) {
	if p < 1 {
		return nil, fmt.Errorf("%w: ring barrier with p=%d", ErrInvalidPattern, p)
	}
	var stages []*matrix.Bool
	if p > 1 {
		for k := 0; k < 2*p-1; k++ {
			st := matrix.NewBool(p, p)
			st.Set(k%p, (k+1)%p, true)
			stages = append(stages, st)
		}
	}
	if len(stages) == 0 {
		stages = []*matrix.Bool{matrix.NewBool(p, p)}
	}
	return &Pattern{Name: "ring", Procs: p, Stages: stages}, nil
}
