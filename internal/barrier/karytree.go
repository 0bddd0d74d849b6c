package barrier

import (
	"fmt"

	"hbsp/internal/sched"
)

// KAryTree returns a combining-tree barrier of the given arity: in each
// arrival stage, groups of up to k consecutive sub-roots forward their
// aggregated arrival to the group's first member, and the release stages are
// the transposed arrival stages in reverse order. KAryTree(p, 2) is Tree(p).
// Higher arities trade fewer stages for more contention at the receiving
// processes, one of the interconnect-dependent trade-offs the thesis' cost
// model is designed to evaluate (and that the future-work section proposes
// exploring for other interconnects).
func KAryTree(p, k int) (*Pattern, error) {
	if p < 1 {
		return nil, fmt.Errorf("%w: k-ary tree barrier with p=%d", ErrInvalidPattern, p)
	}
	if k < 2 {
		return nil, fmt.Errorf("%w: k-ary tree barrier needs arity >= 2, got %d", ErrInvalidPattern, k)
	}
	var arrive []sched.Stage
	for dist := 1; dist < p; dist *= k {
		st := emptyStage(p)
		// Group leaders are the multiples of dist*k; the other multiples of
		// dist within a group signal the leader.
		for leader := 0; leader < p; leader += dist * k {
			for child := leader + dist; child < leader+dist*k && child < p; child += dist {
				st.Out[child] = []int{leader}
				st.In[leader] = append(st.In[leader], child)
			}
		}
		arrive = append(arrive, st)
	}
	// An arrival stage has at most one edge per Out row and ascending In rows,
	// so swapping Out and In is its exact transpose.
	stages := append(make([]sched.Stage, 0, 2*len(arrive)), arrive...)
	for s := len(arrive) - 1; s >= 0; s-- {
		stages = append(stages, sched.Stage{Out: arrive[s].In, In: arrive[s].Out})
	}
	return barrierOf(fmt.Sprintf("%d-ary tree", k), p, stages), nil
}
