package adapt

import (
	"runtime"
	"strings"
	"testing"

	"hbsp/internal/barrier"
	"hbsp/internal/matrix"
	"hbsp/internal/platform"
)

func xeonParams(t *testing.T, ranks int) barrier.Params {
	t.Helper()
	prof := platform.Xeon8x2x4()
	pl, err := prof.Place(ranks)
	if err != nil {
		t.Fatal(err)
	}
	return barrier.Params{
		Latency:  prof.LatencyMatrix(pl),
		Overhead: prof.OverheadMatrix(pl),
		Beta:     prof.BetaMatrix(pl),
	}
}

func TestAutoThresholdSeparatesNodeAndNetwork(t *testing.T) {
	params := xeonParams(t, 32)
	th, err := AutoThreshold(params.Latency)
	if err != nil {
		t.Fatal(err)
	}
	// Intra-node latencies are below a microsecond, network ones tens of
	// microseconds; the threshold must fall in between.
	if th < 1e-6 || th > 28e-6 {
		t.Fatalf("threshold %g not between local and network latencies", th)
	}
}

func TestAutoThresholdErrors(t *testing.T) {
	if _, err := AutoThreshold(nil); err == nil {
		t.Error("nil matrix should fail")
	}
	if _, err := AutoThreshold(matrix.NewDense(1, 1)); err == nil {
		t.Error("single process should fail")
	}
	if _, err := AutoThreshold(matrix.NewDense(3, 3)); err == nil {
		t.Error("all-zero matrix should fail")
	}
}

func TestClusterByLatencyGroupsNodes(t *testing.T) {
	// 32 round-robin ranks on 8 nodes: every node hosts ranks r, r+8, r+16,
	// r+24, which must form one cluster each.
	params := xeonParams(t, 32)
	cl, err := ClusterAuto(params.Latency)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cl.Groups) != 8 {
		t.Fatalf("expected 8 clusters (one per node), got %d: %v", len(cl.Groups), cl.Sizes())
	}
	for _, size := range cl.Sizes() {
		if size != 4 {
			t.Fatalf("expected clusters of 4 ranks, got %v", cl.Sizes())
		}
	}
	if cl.Groups[0][0] != 0 || cl.Groups[1][0] != 1 {
		t.Fatalf("clusters do not start at ranks 0 and 1: %v", cl.Groups)
	}
	if !strings.Contains(cl.String(), "8 subsets") {
		t.Fatalf("String() = %q", cl.String())
	}
}

func TestClusterByLatencyErrors(t *testing.T) {
	if _, err := ClusterByLatency(nil, 1); err == nil {
		t.Error("nil matrix should fail")
	}
	if _, err := ClusterByLatency(matrix.NewDense(2, 2), 0); err == nil {
		t.Error("zero threshold should fail")
	}
}

func TestClusteringValidate(t *testing.T) {
	bad := &Clustering{Groups: [][]int{{0, 1}, {1, 2}}}
	if err := bad.Validate(); err == nil {
		t.Error("duplicate rank should fail")
	}
	gap := &Clustering{Groups: [][]int{{0}, {2}}}
	if err := gap.Validate(); err == nil {
		t.Error("missing rank should fail")
	}
	empty := &Clustering{Groups: [][]int{{}}}
	if err := empty.Validate(); err == nil {
		t.Error("empty group should fail")
	}
}

func TestBuildHybridVerifies(t *testing.T) {
	params := xeonParams(t, 24)
	cl, err := ClusterAuto(params.Latency)
	if err != nil {
		t.Fatal(err)
	}
	for _, intra := range []SubPattern{SubLinear, SubTree} {
		for _, inter := range []SubPattern{SubLinear, SubTree, SubDissemination} {
			pat, err := BuildHybrid(cl, intra, inter)
			if err != nil {
				t.Fatalf("BuildHybrid(%v, %v): %v", intra, inter, err)
			}
			if err := pat.Verify(); err != nil {
				t.Errorf("hybrid %v/%v does not verify: %v", intra, inter, err)
			}
			if pat.NumProcs() != 24 {
				t.Errorf("hybrid %v/%v has %d procs", intra, inter, pat.NumProcs())
			}
		}
	}
}

func TestBuildHybridRejectsBadInputs(t *testing.T) {
	if _, err := BuildHybrid(nil, SubLinear, SubLinear); err == nil {
		t.Error("nil clustering should fail")
	}
	cl := &Clustering{Groups: [][]int{{0, 1, 2, 3}}}
	if _, err := BuildHybrid(cl, SubDissemination, SubLinear); err == nil {
		t.Error("dissemination as intra pattern should fail")
	}
	if _, err := BuildHybrid(cl, SubLinear, SubPattern(42)); err == nil {
		t.Error("unknown inter pattern should fail")
	}
}

func TestBuildHybridSingleClusterAndSingleton(t *testing.T) {
	one := &Clustering{Groups: [][]int{{0, 1, 2, 3, 4}}}
	pat, err := BuildHybrid(one, SubTree, SubDissemination)
	if err != nil {
		t.Fatal(err)
	}
	if err := pat.Verify(); err != nil {
		t.Fatal(err)
	}
	single := &Clustering{Groups: [][]int{{0}}}
	pat, err = BuildHybrid(single, SubLinear, SubLinear)
	if err != nil {
		t.Fatal(err)
	}
	if err := pat.Verify(); err != nil {
		t.Fatal(err)
	}
	// Mixed cluster sizes including singletons.
	mixed := &Clustering{Groups: [][]int{{0, 1, 2}, {3}, {4, 5}}}
	pat, err = BuildHybrid(mixed, SubTree, SubTree)
	if err != nil {
		t.Fatal(err)
	}
	if err := pat.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyPrefersHierarchyAwarePattern(t *testing.T) {
	params := xeonParams(t, 32)
	res, err := Greedy(params, barrier.DefaultCostOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 9 {
		t.Fatalf("expected 9 candidates, got %d", len(res.Candidates))
	}
	// Candidates must be sorted by predicted cost.
	for i := 1; i < len(res.Candidates); i++ {
		if res.Candidates[i].Predicted < res.Candidates[i-1].Predicted {
			t.Fatal("candidates not sorted by predicted cost")
		}
	}
	// The winning candidate must be at least as good as the flat linear
	// barrier and the flat dissemination barrier (the "system defaults").
	var flatDiss, flatLin float64
	for _, c := range res.Candidates {
		switch c.Name {
		case "flat-dissemination":
			flatDiss = c.Predicted
		case "flat-linear":
			flatLin = c.Predicted
		}
	}
	if res.Best.Predicted > flatDiss || res.Best.Predicted > flatLin {
		t.Fatalf("best candidate %q (%g) worse than defaults (diss %g, linear %g)",
			res.Best.Name, res.Best.Predicted, flatDiss, flatLin)
	}
	// On a clustered gigabit platform a hierarchy-aware hybrid should win.
	if !strings.HasPrefix(res.Best.Name, "hybrid(") {
		t.Logf("note: best candidate is %q (flat), predicted %g", res.Best.Name, res.Best.Predicted)
	}
	if res.Best.Pattern == nil || res.Best.Pattern.Verify() != nil {
		t.Fatal("best pattern missing or incorrect")
	}
}

func TestGreedyWithClusteringValidation(t *testing.T) {
	params := xeonParams(t, 8)
	if _, err := greedyWithClustering(params, barrier.DefaultCostOptions(), nil, 0); err == nil {
		t.Error("nil clustering should fail")
	}
	tooSmall := &Clustering{Groups: [][]int{{0, 1}}}
	if _, err := greedyWithClustering(params, barrier.DefaultCostOptions(), tooSmall, 0); err == nil {
		t.Error("clustering/params size mismatch should fail")
	}
	if _, err := Greedy(barrier.Params{}, barrier.DefaultCostOptions()); err == nil {
		t.Error("invalid params should fail")
	}
}

func TestAdaptedBarrierBeatsWorstDefaultInSimulation(t *testing.T) {
	// Close the loop of Case Study I: construct the adapted barrier from the
	// model and check, in simulation, that it is no slower than the linear
	// default and competitive with the best flat algorithm.
	const ranks = 32
	prof := platform.Xeon8x2x4()
	prof.NoiseRel = 0
	m, err := prof.Machine(ranks)
	if err != nil {
		t.Fatal(err)
	}
	params := barrier.Params{
		Latency:  prof.LatencyMatrix(m.Placement()),
		Overhead: prof.OverheadMatrix(m.Placement()),
	}
	res, err := Greedy(params, barrier.DefaultCostOptions())
	if err != nil {
		t.Fatal(err)
	}
	adapted, err := barrier.Measure(m, res.Best.Pattern, 3)
	if err != nil {
		t.Fatal(err)
	}
	linPat, _ := barrier.Linear(ranks, 0)
	linear, err := barrier.Measure(m, linPat, 3)
	if err != nil {
		t.Fatal(err)
	}
	dissPat, _ := barrier.Dissemination(ranks)
	diss, err := barrier.Measure(m, dissPat, 3)
	if err != nil {
		t.Fatal(err)
	}
	if adapted.MeanWorst > linear.MeanWorst {
		t.Errorf("adapted barrier (%g) slower than the linear default (%g)", adapted.MeanWorst, linear.MeanWorst)
	}
	if adapted.MeanWorst > 1.5*diss.MeanWorst {
		t.Errorf("adapted barrier (%g) much slower than flat dissemination (%g)", adapted.MeanWorst, diss.MeanWorst)
	}
}

func TestSubPatternString(t *testing.T) {
	if SubLinear.String() != "linear" || SubTree.String() != "tree" || SubDissemination.String() != "dissemination" {
		t.Fatal("sub-pattern names wrong")
	}
	if SubPattern(9).String() == "" {
		t.Fatal("unknown sub-pattern should render")
	}
}

func TestGreedySyncCostsCandidatesWithCountPayload(t *testing.T) {
	params := xeonParams(t, 32)
	res, err := GreedySync(params, barrier.DefaultCostOptions(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 9 {
		t.Fatalf("expected 9 candidates, got %d", len(res.Candidates))
	}
	plain, err := Greedy(params, barrier.DefaultCostOptions())
	if err != nil {
		t.Fatal(err)
	}
	signalsOnly := map[string]float64{}
	for _, c := range plain.Candidates {
		signalsOnly[c.Name] = c.Predicted
	}
	for _, c := range res.Candidates {
		twin, ok := signalsOnly[strings.TrimSuffix(c.Name, "+counts")]
		if !ok || !strings.HasSuffix(c.Name, "+counts") {
			t.Errorf("candidate %q not costed with the count payload", c.Name)
		}
		if c.Predicted < twin {
			t.Errorf("candidate %q predicted at %g, cheaper than its signals alone (%g)", c.Name, c.Predicted, twin)
		}
		if c.Pattern.Verify() != nil {
			t.Errorf("candidate %q does not verify", c.Name)
		}
	}
	// Carrying the count map can only make a schedule more expensive than its
	// signal-only counterpart.
	if res.Best.Predicted < plain.Best.Predicted {
		t.Fatalf("payload-carrying best (%g) cheaper than signal-only best (%g)",
			res.Best.Predicted, plain.Best.Predicted)
	}
}

// TestBuildHybridAllocatesPerStage bounds the hierarchical construction at
// P = 4,096 over 256 clusters of 16: every stage is O(P) edge lists, so each
// of the six intra/inter combinations allocates within a constant × P ×
// stages bytes, verification included. Built from P×P stage matrices, the
// first combination allocated 8.7 GB.
func TestBuildHybridAllocatesPerStage(t *testing.T) {
	const clusters, size = 256, 16
	cl := &Clustering{}
	for c := 0; c < clusters; c++ {
		g := make([]int, size)
		for i := range g {
			g[i] = c + i*clusters // round-robin placement: members interleave
		}
		cl.Groups = append(cl.Groups, g)
	}
	for _, intra := range []SubPattern{SubLinear, SubTree} {
		for _, inter := range []SubPattern{SubLinear, SubTree, SubDissemination} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			pat, err := BuildHybrid(cl, intra, inter)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("BuildHybrid(%v, %v): %v", intra, inter, err)
			}
			alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(512*pat.NumProcs()*pat.NumStages())
			t.Logf("%s: %d stages, %d KiB allocated (bound %d KiB)", pat.Name, pat.NumStages(), alloc>>10, bound>>10)
			if alloc > bound {
				t.Errorf("%s allocated %d KiB over %d stages, want at most 512 B per rank and stage (%d KiB)",
					pat.Name, alloc>>10, pat.NumStages(), bound>>10)
			}
		}
	}
}
