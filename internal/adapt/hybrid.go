package adapt

import (
	"fmt"
	"sort"

	"hbsp/internal/barrier"
	"hbsp/internal/matrix"
	"hbsp/internal/sched"
)

// SubPattern names the building blocks the hybrid barrier construction can
// choose from (Fig. 7.2/7.3).
type SubPattern int

const (
	// SubLinear gathers/releases a cluster through its representative in a
	// single stage each, or runs a flat linear barrier at the top level.
	SubLinear SubPattern = iota
	// SubTree gathers/releases a cluster with a binary combining tree, or
	// runs a flat tree barrier at the top level.
	SubTree
	// SubDissemination runs a dissemination barrier; it is only meaningful
	// at the inter-representative level (it has no gather/release form).
	SubDissemination
)

// String names the sub-pattern.
func (sp SubPattern) String() string {
	switch sp {
	case SubLinear:
		return "linear"
	case SubTree:
		return "tree"
	case SubDissemination:
		return "dissemination"
	default:
		return fmt.Sprintf("SubPattern(%d)", int(sp))
	}
}

// gatherStages returns the arrival-phase stage matrices of the chosen
// sub-pattern for a cluster, expressed over the global rank space. The
// cluster's representative is its first member.
func gatherStages(kind SubPattern, members []int, procs int) ([]*matrix.Bool, error) {
	k := len(members)
	if k <= 1 {
		return nil, nil
	}
	switch kind {
	case SubLinear:
		st := matrix.NewBool(procs, procs)
		for _, m := range members[1:] {
			st.Set(m, members[0], true)
		}
		return []*matrix.Bool{st}, nil
	case SubTree:
		var stages []*matrix.Bool
		for dist := 1; dist < k; dist *= 2 {
			st := matrix.NewBool(procs, procs)
			used := false
			for i := dist; i < k; i += 2 * dist {
				st.Set(members[i], members[i-dist], true)
				used = true
			}
			if used {
				stages = append(stages, st)
			}
		}
		return stages, nil
	default:
		return nil, fmt.Errorf("adapt: %v cannot be used as an intra-cluster gather pattern", kind)
	}
}

// topLevelStages returns the stage matrices of the inter-representative
// barrier, expressed over the global rank space.
func topLevelStages(kind SubPattern, reps []int, procs int) ([]*matrix.Bool, error) {
	k := len(reps)
	if k <= 1 {
		return nil, nil
	}
	var local *barrier.Pattern
	var err error
	switch kind {
	case SubLinear:
		local, err = barrier.Linear(k, 0)
	case SubTree:
		local, err = barrier.Tree(k)
	case SubDissemination:
		local, err = barrier.Dissemination(k)
	default:
		return nil, fmt.Errorf("adapt: unknown top-level pattern %v", kind)
	}
	if err != nil {
		return nil, err
	}
	var out []*matrix.Bool
	for _, st := range local.Stages {
		g := matrix.NewBool(procs, procs)
		for i := 0; i < k; i++ {
			for _, j := range st.RowTrue(i) {
				g.Set(reps[i], reps[j], true)
			}
		}
		out = append(out, g)
	}
	return out, nil
}

// mergeAligned overlays per-cluster stage lists into global stages. Clusters
// with fewer stages are right-aligned so that every cluster finishes its
// gather phase in the final merged stage (and, mirrored, starts its release
// phase in the first).
func mergeAligned(perCluster [][]*matrix.Bool, procs int, rightAlign bool) []*matrix.Bool {
	max := 0
	for _, stages := range perCluster {
		if len(stages) > max {
			max = len(stages)
		}
	}
	if max == 0 {
		return nil
	}
	merged := make([]*matrix.Bool, max)
	for s := range merged {
		merged[s] = matrix.NewBool(procs, procs)
	}
	for _, stages := range perCluster {
		offset := 0
		if rightAlign {
			offset = max - len(stages)
		}
		for s, st := range stages {
			dst := merged[offset+s]
			for i := 0; i < procs; i++ {
				for _, j := range st.RowTrue(i) {
					dst.Set(i, j, true)
				}
			}
		}
	}
	return merged
}

// BuildHybrid constructs a hierarchical hybrid barrier (Fig. 7.2): each
// cluster gathers onto its representative with the intra pattern, the
// representatives synchronize with the inter pattern, and the gather phase is
// mirrored to release the clusters.
func BuildHybrid(cl *Clustering, intra, inter SubPattern) (*barrier.Pattern, error) {
	if cl == nil {
		return nil, fmt.Errorf("%w: nil clustering", ErrBadInput)
	}
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	if intra != SubLinear && intra != SubTree {
		return nil, fmt.Errorf("adapt: %v cannot be used as an intra-cluster gather pattern", intra)
	}
	if inter != SubLinear && inter != SubTree && inter != SubDissemination {
		return nil, fmt.Errorf("adapt: unknown top-level pattern %v", inter)
	}
	procs := cl.Procs()
	reps := cl.Representatives()
	sort.Ints(reps)

	var gathers [][]*matrix.Bool
	for _, g := range cl.Groups {
		stages, err := gatherStages(intra, g, procs)
		if err != nil {
			return nil, err
		}
		gathers = append(gathers, stages)
	}
	gatherPhase := mergeAligned(gathers, procs, true)

	topPhase, err := topLevelStages(inter, reps, procs)
	if err != nil {
		return nil, err
	}

	// Release phase: the gather stages transposed, in reverse order,
	// left-aligned so every cluster starts releasing immediately.
	var releases [][]*matrix.Bool
	for _, stages := range gathers {
		var rel []*matrix.Bool
		for s := len(stages) - 1; s >= 0; s-- {
			rel = append(rel, stages[s].Transpose())
		}
		releases = append(releases, rel)
	}
	releasePhase := mergeAligned(releases, procs, false)

	var stages []*matrix.Bool
	stages = append(stages, gatherPhase...)
	stages = append(stages, topPhase...)
	stages = append(stages, releasePhase...)
	if len(stages) == 0 {
		stages = []*matrix.Bool{matrix.NewBool(procs, procs)}
	}
	pat := &barrier.Pattern{
		Name:   fmt.Sprintf("hybrid(%s/%s)", intra, inter),
		Procs:  procs,
		Stages: stages,
	}
	if err := pat.Verify(); err != nil {
		return nil, fmt.Errorf("adapt: constructed hybrid barrier is incorrect: %w", err)
	}
	return pat, nil
}

// Candidate describes one evaluated barrier candidate.
type Candidate struct {
	// Name is the pattern name.
	Name string
	// Pattern is the constructed pattern, as pure signals.
	Pattern *barrier.Pattern
	// Predicted is the cost-model prediction for the pattern, sized as the
	// construction scored it.
	Predicted float64
}

// Result is the outcome of the greedy adaptive construction.
type Result struct {
	// Clustering is the subset structure the construction used.
	Clustering *Clustering
	// Best is the candidate with the lowest predicted cost.
	Best Candidate
	// Candidates lists every evaluated candidate, sorted by predicted cost.
	Candidates []Candidate
}

// Greedy performs the model-driven barrier construction of Section 7.3: it
// clusters the processes by the latency matrix, builds every hybrid
// combination of intra patterns {linear, tree} and inter patterns {linear,
// tree, dissemination}, adds the flat reference algorithms, predicts each
// candidate's cost with the Chapter 5 model, and returns them ranked.
func Greedy(params barrier.Params, opts barrier.CostOptions) (*Result, error) {
	return greedyAuto(params, opts, 0)
}

// GreedyWithClustering is Greedy with an externally supplied clustering.
func GreedyWithClustering(params barrier.Params, opts barrier.CostOptions, cl *Clustering) (*Result, error) {
	return greedyWithClustering(params, opts, cl, 0)
}

// GreedySync performs the same model-driven construction for the BSP
// count-exchange schedule: every candidate is costed carrying the message
// counts it would transport at run time (barrier.KnowledgeSized, one row of
// P bytesPerEntry-sized counters per origin; ranked as name+"+counts"), so
// the winner is the schedule a bsp.Synchronizer should actually execute.
// bytesPerEntry must match the wire width of the runtime that will execute
// the winner — the internal/bsp count exchange sends 4-byte counters
// (bsp.NewAdaptedSynchronizer passes its own wire constant; a width below 1
// is taken as 4); pricing a different width can rank candidates by payloads
// the runtime never sends.
func GreedySync(params barrier.Params, opts barrier.CostOptions, bytesPerEntry int) (*Result, error) {
	if bytesPerEntry <= 0 {
		bytesPerEntry = 4
	}
	return greedyAuto(params, opts, bytesPerEntry)
}

// greedyAuto derives the clustering from the latency matrix and runs the
// greedy construction.
func greedyAuto(params barrier.Params, opts barrier.CostOptions, countBytes int) (*Result, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	cl, err := ClusterAuto(params.Latency)
	if err != nil {
		return nil, err
	}
	return greedyWithClustering(params, opts, cl, countBytes)
}

// greedyWithClustering evaluates every candidate: as the pure signals it is
// built from, or with countBytes > 0 as the count exchange over it.
func greedyWithClustering(params barrier.Params, opts barrier.CostOptions, cl *Clustering, countBytes int) (*Result, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if cl == nil {
		return nil, fmt.Errorf("%w: nil clustering", ErrBadInput)
	}
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	p := params.Procs()
	if cl.Procs() != p {
		return nil, fmt.Errorf("%w: clustering covers %d processes, params describe %d", ErrBadInput, cl.Procs(), p)
	}

	var candidates []Candidate
	add := func(name string, pat *barrier.Pattern) error {
		var scored sched.Schedule = pat
		if countBytes > 0 {
			name += "+counts"
			scored = barrier.KnowledgeSized(pat, 0, p*countBytes)
		}
		pred, err := barrier.Predict(scored, params, opts)
		if err != nil {
			return err
		}
		candidates = append(candidates, Candidate{Name: name, Pattern: pat, Predicted: pred.Total})
		return nil
	}

	// Flat reference algorithms.
	if flat, err := barrier.Linear(p, 0); err == nil {
		if err := add("flat-linear", flat); err != nil {
			return nil, err
		}
	}
	if flat, err := barrier.Tree(p); err == nil {
		if err := add("flat-tree", flat); err != nil {
			return nil, err
		}
	}
	if flat, err := barrier.Dissemination(p); err == nil {
		if err := add("flat-dissemination", flat); err != nil {
			return nil, err
		}
	}

	// Hybrid combinations over the clustering.
	for _, intra := range []SubPattern{SubLinear, SubTree} {
		for _, inter := range []SubPattern{SubLinear, SubTree, SubDissemination} {
			pat, err := BuildHybrid(cl, intra, inter)
			if err != nil {
				return nil, err
			}
			if err := add(pat.Name, pat); err != nil {
				return nil, err
			}
		}
	}

	sort.Slice(candidates, func(i, j int) bool { return candidates[i].Predicted < candidates[j].Predicted })
	return &Result{Clustering: cl, Best: candidates[0], Candidates: candidates}, nil
}
