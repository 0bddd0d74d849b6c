package barrier

import (
	"fmt"
	"testing"

	"hbsp/internal/matrix"
	"hbsp/internal/sched"
)

// The oracles the product code is held to, written independently of it: the
// thesis' P×P stage matrices and the literal matrix products of Eqs. 5.1/5.2,
// and every generator's edge rule as the thesis states it.

// stageMatrix returns the thesis' 0/1 incidence matrix of one stage: (i, j)
// is 1 when i signals j.
func stageMatrix(st sched.Stage, p int) *matrix.Dense {
	m := matrix.NewDense(p, p)
	for i, outs := range st.Out {
		for _, j := range outs {
			m.Set(i, j, 1)
		}
	}
	return m
}

// sameMatrices fails unless the pattern's stages are the given literals.
func sameMatrices(t *testing.T, pat *Pattern, want ...*matrix.Dense) {
	t.Helper()
	if pat.NumStages() != len(want) {
		t.Fatalf("%s: %d stages, want %d", pat.Name, pat.NumStages(), len(want))
	}
	for s, w := range want {
		if got := stageMatrix(pat.StageAt(s), pat.NumProcs()); !got.Equal(w, 0) {
			t.Fatalf("%s stage %d:\n%v\nwant\n%v", pat.Name, s, got, w)
		}
	}
}

// verifyDense is the knowledge recursion of Eqs. 5.1/5.2 as literal dense
// matrix products over the schedule's stage matrices, O(P³) per stage: the
// reference VerifySchedule is tested and benchmarked against. Only the
// structural check is shared with the product code.
func verifyDense(s sched.Schedule, sem Semantics, root int) error {
	if err := checkSchedule(s); err != nil {
		return err
	}
	p := s.NumProcs()
	if (sem == SemBroadcast || sem == SemReduce) && (root < 0 || root >= p) {
		return fmt.Errorf("%w: root %d out of range", ErrInvalidPattern, root)
	}
	// K(i, j) counts the signals process j has received that prove process
	// i's arrival. Knowledge starts as the identity.
	k := matrix.Identity(p)
	for sg := 0; sg < s.NumStages(); sg++ {
		spread, err := k.Mul(stageMatrix(s.StageAt(sg), p))
		if err != nil {
			return err
		}
		if k, err = k.AddTo(spread); err != nil {
			return err
		}
	}
	return checkReach(p, sem, root, func(j, i int) bool { return k.At(i, j) != 0 })
}

// edgeRule is a generator as the thesis states it: its stage count at p ≥ 2
// and the edges from→to of stage s with their sizes. At p = 1 every
// generator is one empty stage.
type edgeRule struct {
	stages func(p int) int
	edges  func(p, s int, emit func(from, to, size int))
}

// doublings is ⌈log2 p⌉, the stage count of the dissemination and binomial
// schedules.
func doublings(p int) int {
	n := 0
	for d := 1; d < p; d *= 2 {
		n++
	}
	return n
}

// circulantRule: in stage s every rank i signals i+offset(s) mod p.
func circulantRule(stages func(p int) int, offset, size func(s int) int) edgeRule {
	return edgeRule{stages, func(p, s int, emit func(from, to, size int)) {
		for i := 0; i < p; i++ {
			emit(i, (i+offset(s))%p, size(s))
		}
	}}
}

// binomialRule: in the stage of distance 2^s, (root+r) → (root+r+2^s) for
// r < 2^s; the reduction runs those stages transposed, in reverse order.
func binomialRule(root, size int, reduce bool) edgeRule {
	return edgeRule{doublings, func(p, s int, emit func(from, to, size int)) {
		if reduce {
			s = doublings(p) - 1 - s
		}
		for r := 0; r < 1<<s && r+1<<s < p; r++ {
			from, to := (root+r)%p, (root+r+1<<s)%p
			if reduce {
				from, to = to, from
			}
			emit(from, to, size)
		}
	}}
}

// treeRule is Fig. 5.4: in arrival stage s the odd multiples of 2^s signal
// the rank 2^s below them; the release stages are the arrival stages
// transposed, in reverse order.
var treeRule = edgeRule{func(p int) int { return 2 * doublings(p) }, func(p, s int, emit func(from, to, size int)) {
	n := doublings(p)
	release := s >= n
	if release {
		s = 2*n - 1 - s
	}
	for i := 1 << s; i < p; i += 2 << s {
		if release {
			emit(i-1<<s, i, 0)
		} else {
			emit(i, i-1<<s, 0)
		}
	}
}}

// ruleSchedule writes the rule's stages as the thesis' matrices and reads
// them off row by row: Out rows ascending, In rows in row-major scan order.
func ruleSchedule(p int, rule edgeRule) *sched.StaticStages {
	out := &sched.StaticStages{Procs: p, Stages: []sched.Stage{emptyStage(p)}}
	if p == 1 {
		return out
	}
	out.Stages = nil
	for s := 0; s < rule.stages(p); s++ {
		m, sizes := matrix.NewDense(p, p), map[[2]int]int{}
		rule.edges(p, s, func(from, to, size int) { m.Set(from, to, 1); sizes[[2]int{from, to}] = size })
		st := sched.Stage{Out: make([][]int, p), In: make([][]int, p), OutBytes: make([][]int, p)}
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if m.At(i, j) != 0 {
					st.Out[i] = append(st.Out[i], j)
					st.OutBytes[i] = append(st.OutBytes[i], sizes[[2]int{i, j}])
				}
				if m.At(j, i) != 0 {
					st.In[i] = append(st.In[i], j)
				}
			}
		}
		out.Stages = append(out.Stages, st)
	}
	return out
}
