package adapt

import (
	"fmt"
	"slices"
	"sort"

	"hbsp/internal/barrier"
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

// flat returns the stages of the sub-pattern's flat barrier over k ranks.
func flat(kind SubPattern, k int) ([]sched.Stage, error) {
	var pat *barrier.Pattern
	var err error
	switch kind {
	case SubLinear:
		pat, err = barrier.Linear(k, 0)
	case SubTree:
		pat, err = barrier.Tree(k)
	default:
		pat, err = barrier.Dissemination(k)
	}
	if err != nil {
		return nil, err
	}
	return pat.Adjacency(), nil
}

// overlay places local stage lists side by side in global stages over procs
// ranks: local rank i of list c is global rank ranks[c][i]. Each ranks[c] is
// ascending and the lists touch disjoint ranks, so every global row comes
// from one local row, relabeled in order, and the sched.Stage ordering
// contract carries over without sorting. Shorter lists are right-aligned when
// rightAlign (every cluster finishes its gather in the phase's last stage)
// and left-aligned otherwise (every cluster starts its release in the first).
func overlay(local [][]sched.Stage, ranks [][]int, procs int, rightAlign bool) []sched.Stage {
	n := 0
	for _, stages := range local {
		n = max(n, len(stages))
	}
	out := make([]sched.Stage, n)
	for s := range out {
		out[s] = sched.Stage{Out: make([][]int, procs), In: make([][]int, procs)}
	}
	for c, stages := range local {
		off := 0
		if rightAlign {
			off = n - len(stages)
		}
		for s, st := range stages {
			for i, g := range ranks[c] {
				out[off+s].Out[g], out[off+s].In[g] = relabel(st.Out[i], ranks[c]), relabel(st.In[i], ranks[c])
			}
		}
	}
	return out
}

// relabel returns the global ranks of a local edge row.
func relabel(row, ranks []int) []int {
	if len(row) == 0 {
		return nil
	}
	global := make([]int, len(row))
	for k, r := range row {
		global[k] = ranks[r]
	}
	return global
}

// BuildHybrid constructs a hierarchical hybrid barrier (Fig. 7.2): each
// cluster gathers onto its representative (its lowest rank) with the arrival
// half of the flat intra barrier over its members, the representatives
// synchronize with the flat inter barrier, and the release half of the intra
// barrier releases the clusters.
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
	members, reps := make([][]int, len(cl.Groups)), make([]int, len(cl.Groups))
	gathers, releases := make([][]sched.Stage, len(cl.Groups)), make([][]sched.Stage, len(cl.Groups))
	for c, g := range cl.Groups {
		members[c] = slices.Sorted(slices.Values(g))
		reps[c] = members[c][0]
		if len(g) == 1 {
			continue
		}
		local, err := flat(intra, len(g))
		if err != nil {
			return nil, err
		}
		half := len(local) / 2
		gathers[c], releases[c] = local[:half], local[half:]
	}
	slices.Sort(reps)

	stages := overlay(gathers, members, procs, true)
	if len(reps) > 1 {
		top, err := flat(inter, len(reps))
		if err != nil {
			return nil, err
		}
		stages = append(stages, overlay([][]sched.Stage{top}, [][]int{reps}, procs, false)...)
	}
	stages = append(stages, overlay(releases, members, procs, false)...)
	if len(stages) == 0 {
		stages = []sched.Stage{{Out: make([][]int, procs), In: make([][]int, procs)}}
	}
	pat := &barrier.Pattern{
		Name:     fmt.Sprintf("hybrid(%s/%s)", intra, inter),
		Schedule: &sched.StaticStages{Procs: procs, Stages: stages},
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
