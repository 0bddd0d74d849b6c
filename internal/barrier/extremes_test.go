package barrier

import (
	"testing"

	"hbsp/internal/platform"
)

// The thesis mentions the single-stage all-to-all barrier and the token-ring
// barrier as the extremes of the design space (maximal and minimal
// concurrency); these tests exercise measurement and prediction for both so
// the cost model's behaviour at the extremes stays covered.

func TestExtremePatternsMeasureAndPredict(t *testing.T) {
	const ranks = 12
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

	full, err := FullyConnected(ranks)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := Ring(ranks)
	if err != nil {
		t.Fatal(err)
	}
	diss, err := Dissemination(ranks)
	if err != nil {
		t.Fatal(err)
	}

	measure := func(pat *Pattern) float64 {
		meas, err := Measure(m, pat, 2)
		if err != nil {
			t.Fatalf("%s: %v", pat.Name, err)
		}
		return meas.MeanWorst
	}
	predict := func(pat *Pattern) float64 {
		pred, err := Predict(pat, params, DefaultCostOptions())
		if err != nil {
			t.Fatalf("%s: %v", pat.Name, err)
		}
		return pred.Total
	}

	mFull, mRing, mDiss := measure(full), measure(ring), measure(diss)
	pFull, pRing, pDiss := predict(full), predict(ring), predict(diss)

	for name, v := range map[string]float64{
		"all-to-all measured": mFull, "ring measured": mRing, "dissemination measured": mDiss,
		"all-to-all predicted": pFull, "ring predicted": pRing, "dissemination predicted": pDiss,
	} {
		if v <= 0 {
			t.Fatalf("%s is non-positive", name)
		}
	}
	// The ring barrier serializes 2P-1 network hops and must be the most
	// expensive of the three, both measured and predicted.
	if mRing <= mDiss || pRing <= pDiss {
		t.Errorf("ring barrier should be slower than dissemination: measured %g vs %g, predicted %g vs %g",
			mRing, mDiss, pRing, pDiss)
	}
	// The all-to-all barrier commits P-1 messages per process in one stage;
	// its prediction accumulates the summed latency term and therefore
	// overshoots the measurement (the behaviour the thesis reports for the
	// extreme patterns).
	if pFull < mFull {
		t.Errorf("all-to-all prediction %g unexpectedly below measurement %g", pFull, mFull)
	}
}

// signals counts the pattern's edges over all stages.
func signals(pat *Pattern) int {
	n := 0
	for _, st := range pat.Adjacency() {
		for _, outs := range st.Out {
			n += len(outs)
		}
	}
	return n
}

func TestExtremePatternSignalCounts(t *testing.T) {
	full, _ := FullyConnected(6)
	if got := signals(full); got != 30 {
		t.Fatalf("all-to-all signals = %d, want 30", got)
	}
	ring, _ := Ring(6)
	if got := ring.NumStages(); got != 11 {
		t.Fatalf("ring stages = %d, want 11", got)
	}
	if got := signals(ring); got != 11 {
		t.Fatalf("ring signals = %d, want 11", got)
	}
}
