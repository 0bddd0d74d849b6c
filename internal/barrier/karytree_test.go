package barrier

import (
	"fmt"
	"testing"
	"testing/quick"

	"hbsp/internal/platform"
)

// TestKAryTreeMatchesBinaryTree holds the arity-2 tree, and Tree with it, to
// Fig. 5.4's edge rule.
func TestKAryTreeMatchesBinaryTree(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7, 16, 33} {
		binary, err := Tree(p)
		if err != nil {
			t.Fatal(err)
		}
		kary, err := KAryTree(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		ref := ruleSchedule(p, treeRule)
		sameEdges(t, fmt.Sprintf("KAryTree(%d, 2)", p), ref, kary)
		sameEdges(t, fmt.Sprintf("Tree(%d)", p), ref, binary)
		if binary.Name != "tree" {
			t.Fatalf("Tree(%d) is named %q", p, binary.Name)
		}
	}
}

func TestKAryTreeVerifiesAcrossArities(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13, 27, 60, 64} {
		for _, k := range []int{2, 3, 4, 8} {
			pat, err := KAryTree(p, k)
			if err != nil {
				t.Fatalf("KAryTree(%d,%d): %v", p, k, err)
			}
			if err := pat.Verify(); err != nil {
				t.Errorf("KAryTree(%d,%d) fails verification: %v", p, k, err)
			}
		}
	}
}

func TestKAryTreeErrors(t *testing.T) {
	if _, err := KAryTree(0, 2); err == nil {
		t.Error("p=0 should fail")
	}
	if _, err := KAryTree(8, 1); err == nil {
		t.Error("arity 1 should fail")
	}
}

func TestKAryTreeFewerStagesThanBinary(t *testing.T) {
	bin, _ := KAryTree(64, 2)
	quad, _ := KAryTree(64, 4)
	if quad.NumStages() >= bin.NumStages() {
		t.Fatalf("4-ary tree (%d stages) should need fewer stages than binary (%d)", quad.NumStages(), bin.NumStages())
	}
}

func TestKAryTreePredictAndMeasure(t *testing.T) {
	// The cost model and the simulator both accept k-ary trees; on the
	// gigabit profile a wider tree (fewer remote stages) should not be
	// predicted worse than the binary one by a large factor.
	const ranks = 32
	prof := platform.Xeon8x2x4()
	prof.NoiseRel = 0
	m, err := prof.Machine(ranks)
	if err != nil {
		t.Fatal(err)
	}
	params := Params{
		Latency:  prof.LatencyMatrix(m.Placement()),
		Overhead: prof.OverheadMatrix(m.Placement()),
	}
	quad, err := KAryTree(ranks, 4)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Predict(quad, params, DefaultCostOptions())
	if err != nil {
		t.Fatal(err)
	}
	meas, err := Measure(m, quad, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Total <= 0 || meas.MeanWorst <= 0 {
		t.Fatal("non-positive results")
	}
	ratio := pred.Total / meas.MeanWorst
	if ratio < 0.3 || ratio > 3.5 {
		t.Fatalf("4-ary tree prediction %g vs measurement %g (ratio %.2f)", pred.Total, meas.MeanWorst, ratio)
	}
}

// Property: every k-ary tree pattern has at most one incoming release signal
// per process and verifies.
func TestKAryTreeProperty(t *testing.T) {
	f := func(pRaw, kRaw uint8) bool {
		p := int(pRaw%60) + 1
		k := int(kRaw%6) + 2
		pat, err := KAryTree(p, k)
		if err != nil {
			return false
		}
		if pat.Verify() != nil {
			return false
		}
		// In every stage, each process receives from at most k-1 others
		// (its group's children or its parent group).
		for _, st := range pat.Stages {
			for _, ins := range st.In {
				if len(ins) > k-1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
