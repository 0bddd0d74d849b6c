package barrier

import (
	"math"
	"slices"
	"testing"

	"hbsp/internal/matrix"
	"hbsp/internal/platform"
)

// uniformParams builds parameter matrices with a single latency and overhead
// value for all pairs, and a distinct invocation overhead on the diagonal.
func uniformParams(p int, latency, overhead, invocation float64) Params {
	L := matrix.NewDense(p, p)
	O := matrix.NewDense(p, p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j {
				O.Set(i, j, invocation)
				continue
			}
			L.Set(i, j, latency)
			O.Set(i, j, overhead)
		}
	}
	return Params{Latency: L, Overhead: O}
}

func platformParams(t *testing.T, prof *platform.Profile, p int) Params {
	t.Helper()
	pl, err := prof.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	return Params{
		Latency:  prof.LatencyMatrix(pl),
		Overhead: prof.OverheadMatrix(pl),
		Beta:     prof.BetaMatrix(pl),
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{}).Validate(); err == nil {
		t.Error("empty params should fail")
	}
	bad := Params{Latency: matrix.NewDense(2, 3), Overhead: matrix.NewDense(2, 2)}
	if err := bad.Validate(); err == nil {
		t.Error("non-square latency should fail")
	}
	mismatch := Params{Latency: matrix.NewDense(2, 2), Overhead: matrix.NewDense(2, 2), Beta: matrix.NewDense(3, 3)}
	if err := mismatch.Validate(); err == nil {
		t.Error("beta size mismatch should fail")
	}
	ok := uniformParams(3, 1, 1, 1)
	if err := ok.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	if ok.Procs() != 3 {
		t.Error("Procs wrong")
	}
}

func TestPredictUniformDissemination(t *testing.T) {
	// With uniform parameters and the default options, each dissemination
	// stage costs 2·L + o, and the critical path is the number of stages.
	const p = 8
	const L, o, inv = 10e-6, 1e-6, 0.1e-6
	params := uniformParams(p, L, o, inv)
	pat, _ := Dissemination(p)
	pred, err := Predict(pat, params, DefaultCostOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * (2*L + o) // log2(8) = 3 stages
	if math.Abs(pred.Total-want) > 1e-12 {
		t.Fatalf("dissemination prediction = %g, want %g", pred.Total, want)
	}
	for _, v := range pred.PerProcess {
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("per-process predictions should be uniform: %v", pred.PerProcess)
		}
	}
}

func TestPredictUniformLinearGrowsWithP(t *testing.T) {
	const L, o, inv = 10e-6, 1e-6, 0.1e-6
	opts := DefaultCostOptions()
	prev := 0.0
	for _, p := range []int{4, 8, 16, 32} {
		pat, _ := Linear(p, 0)
		pred, err := Predict(pat, uniformParams(p, L, o, inv), opts)
		if err != nil {
			t.Fatal(err)
		}
		// The release stage sums P-1 latencies: the prediction must grow
		// roughly linearly with P.
		if pred.Total <= prev {
			t.Fatalf("linear barrier prediction did not grow: P=%d gives %g (prev %g)", p, pred.Total, prev)
		}
		prev = pred.Total
	}
	// Compare against the closed form for the largest case: the critical
	// path is a worker stage (2L+o) followed by the root stage (2(P-1)L+o).
	pat, _ := Linear(32, 0)
	pred, _ := Predict(pat, uniformParams(32, L, o, inv), opts)
	want := (2*L + o) + (2*31*L + o)
	if math.Abs(pred.Total-want) > 1e-12 {
		t.Fatalf("linear closed form mismatch: %g vs %g", pred.Total, want)
	}
}

func TestPredictOrderingMatchesAsymptotics(t *testing.T) {
	// On a uniform network: dissemination <= tree <= linear for larger P
	// (Section 5.4).
	const p = 32
	params := uniformParams(p, 10e-6, 1e-6, 0.1e-6)
	preds, err := PredictAlgorithms(p, params, DefaultCostOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := preds["dissemination"].Total
	tr := preds["tree"].Total
	l := preds["linear"].Total
	if !(d <= tr && tr <= l) {
		t.Fatalf("expected D <= T <= L, got D=%g T=%g L=%g", d, tr, l)
	}
}

func TestPostedReceiveReducesTreeCost(t *testing.T) {
	// The release stages of the tree barrier signal processes that have been
	// idle since their arrival signal; the posted-receive refinement must
	// therefore lower (or keep) the predicted cost.
	const p = 16
	params := uniformParams(p, 10e-6, 5e-6, 0.1e-6)
	pat, _ := Tree(p)
	with := DefaultCostOptions()
	without := DefaultCostOptions()
	without.PostedReceive = false
	predWith, err := Predict(pat, params, with)
	if err != nil {
		t.Fatal(err)
	}
	predWithout, err := Predict(pat, params, without)
	if err != nil {
		t.Fatal(err)
	}
	if predWith.Total > predWithout.Total {
		t.Fatalf("posted-receive refinement increased cost: %g > %g", predWith.Total, predWithout.Total)
	}
	if predWith.Total == predWithout.Total {
		t.Fatalf("posted-receive refinement had no effect on the tree barrier")
	}
}

func TestAckFactorAblation(t *testing.T) {
	const p = 8
	params := uniformParams(p, 10e-6, 1e-6, 0.1e-6)
	pat, _ := Dissemination(p)
	half := DefaultCostOptions()
	half.AckFactor = 1
	predHalf, _ := Predict(pat, params, half)
	predFull, _ := Predict(pat, params, DefaultCostOptions())
	if predHalf.Total >= predFull.Total {
		t.Fatalf("AckFactor=1 (%g) should predict less than AckFactor=2 (%g)", predHalf.Total, predFull.Total)
	}
	// Zero/negative ack factors are clamped to 1.
	zero := DefaultCostOptions()
	zero.AckFactor = 0
	predZero, _ := Predict(pat, params, zero)
	if predZero.Total != predHalf.Total {
		t.Fatalf("AckFactor=0 should clamp to 1: %g vs %g", predZero.Total, predHalf.Total)
	}
}

func TestPayloadIncreasesPrediction(t *testing.T) {
	const p = 16
	prof := platform.Xeon8x2x4()
	params := platformParams(t, prof, p)
	plain, _ := Dissemination(p)
	withPayload := KnowledgeSized(plain, 0, p*4)
	predPlain, err := Predict(plain, params, DefaultCostOptions())
	if err != nil {
		t.Fatal(err)
	}
	predPayload, err := Predict(withPayload, params, DefaultCostOptions())
	if err != nil {
		t.Fatal(err)
	}
	if predPayload.Total <= predPlain.Total {
		t.Fatalf("payload should increase predicted cost: %g vs %g", predPayload.Total, predPlain.Total)
	}
	// The payload of a few hundred bytes must not dominate: stay within 3x.
	if predPayload.Total > 3*predPlain.Total {
		t.Fatalf("payload cost unreasonably large: %g vs %g", predPayload.Total, predPlain.Total)
	}
}

func TestPredictLocalityCheaperThanRemote(t *testing.T) {
	// A barrier over ranks placed within one node must be predicted cheaper
	// than one spanning nodes (Section 5.1's locality guideline).
	prof := platform.Xeon8x2x4()
	pl8local, err := prof.PlaceWith(8, 1 /* block fills one node */)
	if err != nil {
		t.Fatal(err)
	}
	localParams := Params{Latency: prof.LatencyMatrix(pl8local), Overhead: prof.OverheadMatrix(pl8local)}
	remoteParams := platformParams(t, prof, 8) // round-robin across 8 nodes
	pat, _ := Dissemination(8)
	local, err := Predict(pat, localParams, DefaultCostOptions())
	if err != nil {
		t.Fatal(err)
	}
	remote, err := Predict(pat, remoteParams, DefaultCostOptions())
	if err != nil {
		t.Fatal(err)
	}
	if local.Total >= remote.Total {
		t.Fatalf("intra-node prediction (%g) should be below cross-node (%g)", local.Total, remote.Total)
	}
}

func TestPredictValidationErrors(t *testing.T) {
	pat, _ := Dissemination(4)
	if _, err := Predict(pat, uniformParams(5, 1, 1, 1), DefaultCostOptions()); err == nil {
		t.Error("size mismatch should fail")
	}
	if _, err := Predict(&Pattern{Name: "bad"}, uniformParams(4, 1, 1, 1), DefaultCostOptions()); err == nil {
		t.Error("invalid pattern should fail")
	}
	if _, err := Predict(pat, Params{}, DefaultCostOptions()); err == nil {
		t.Error("invalid params should fail")
	}
	if _, err := PredictAlgorithms(0, uniformParams(4, 1, 1, 1), DefaultCostOptions()); err == nil {
		t.Error("PredictAlgorithms with p=0 should fail")
	}
}

func TestStageCostsShape(t *testing.T) {
	const p = 8
	pat, _ := Tree(p)
	pred, err := Predict(pat, uniformParams(p, 1e-6, 1e-7, 1e-8), DefaultCostOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.StageCosts) != pat.NumStages() {
		t.Fatalf("stage cost rows = %d", len(pred.StageCosts))
	}
	for s, row := range pred.StageCosts {
		if len(row) != p {
			t.Fatalf("stage %d has %d cost entries", s, len(row))
		}
		for i, c := range row {
			if c < 0 {
				t.Fatalf("negative stage cost at (%d,%d)", s, i)
			}
		}
	}
}

// TestPredictStreamedEqualsDense: the cost model reads a schedule through its
// stage view, so a streamed generator and the materialized edge lists of the
// same stages — circulant or binomial tree, signals or payload — must come out
// bit-equal in every figure under both acknowledgement factors.
func TestPredictStreamedEqualsDense(t *testing.T) {
	prof := platform.Xeon8x2x4()
	for p := 1; p <= 33; p++ {
		params := platformParams(t, prof, p)
		for name, g := range generators(p, p/2) {
			pat, err := g.pattern()
			if err != nil {
				t.Fatal(err)
			}
			stream, err := g.stream()
			if err != nil {
				t.Fatal(err)
			}
			for _, sem := range []Semantics{SemBarrier, SemReduce} {
				want, err := Predict(pat, params, CostOptionsFor(sem))
				if err != nil {
					t.Fatal(err)
				}
				got, err := Predict(stream, params, CostOptionsFor(sem))
				if err != nil {
					t.Fatal(err)
				}
				if got.Total != want.Total || !slices.Equal(got.PerProcess, want.PerProcess) ||
					!slices.EqualFunc(got.StageCosts, want.StageCosts, slices.Equal[[]float64]) {
					t.Fatalf("%s p=%d %s options: streamed %+v, materialized %+v", name, p, sem, got, want)
				}
			}
		}
	}
}
