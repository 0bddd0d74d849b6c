package bench

import (
	"math"
	"testing"

	"hbsp/internal/barrier"
	"hbsp/internal/kernels"
	"hbsp/internal/platform"
)

func quietMachine(t *testing.T, ranks int) *platform.Machine {
	t.Helper()
	prof := platform.Xeon8x2x4()
	prof.NoiseRel = 0.01
	m, err := prof.Machine(ranks)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMeasurePairwiseTracksGroundTruth(t *testing.T) {
	const ranks = 8
	prof := platform.Xeon8x2x4()
	prof.NoiseRel = 0.01
	m, err := prof.Machine(ranks)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasurePairwise(m, DefaultPairwiseOptions())
	if err != nil {
		t.Fatal(err)
	}
	truthL := prof.LatencyMatrix(m.Placement())
	truthO := prof.OverheadMatrix(m.Placement())
	truthB := prof.BetaMatrix(m.Placement())
	for i := 0; i < ranks; i++ {
		for j := 0; j < ranks; j++ {
			if i == j {
				if res.Overhead.At(i, i) <= 0 {
					t.Fatalf("invocation overhead missing at %d", i)
				}
				continue
			}
			if rel := relErr(res.Latency.At(i, j), truthL.At(i, j)); rel > 0.35 {
				t.Errorf("latency (%d,%d): measured %g vs truth %g (rel %.2f)",
					i, j, res.Latency.At(i, j), truthL.At(i, j), rel)
			}
			if rel := relErr(res.Overhead.At(i, j), truthO.At(i, j)); rel > 0.35 {
				t.Errorf("overhead (%d,%d): measured %g vs truth %g (rel %.2f)",
					i, j, res.Overhead.At(i, j), truthO.At(i, j), rel)
			}
			if rel := relErr(res.Beta.At(i, j), truthB.At(i, j)); rel > 0.35 {
				t.Errorf("beta (%d,%d): measured %g vs truth %g (rel %.2f)",
					i, j, res.Beta.At(i, j), truthB.At(i, j), rel)
			}
		}
	}
	// The result converts into valid cost-model parameters.
	if err := res.Params().Validate(); err != nil {
		t.Fatal(err)
	}
}

func relErr(measured, truth float64) float64 {
	if truth == 0 {
		return math.Abs(measured)
	}
	return math.Abs(measured-truth) / truth
}

func TestMeasurePairwiseValidation(t *testing.T) {
	m := quietMachine(t, 2)
	if _, err := MeasurePairwise(nil, DefaultPairwiseOptions()); err == nil {
		t.Error("nil machine should fail")
	}
	bad := DefaultPairwiseOptions()
	bad.Samples = 0
	if _, err := MeasurePairwise(m, bad); err == nil {
		t.Error("zero samples should fail")
	}
	bad = DefaultPairwiseOptions()
	bad.Sizes = []int{8}
	if _, err := MeasurePairwise(m, bad); err == nil {
		t.Error("single size should fail")
	}
}

func TestPairwiseParamsPredictBarrier(t *testing.T) {
	// End-to-end Chapter 5 workflow: benchmark the matrices, predict a
	// barrier, measure it, compare.
	const ranks = 12
	prof := platform.Xeon8x2x4()
	prof.NoiseRel = 0.02
	m, err := prof.Machine(ranks)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultPairwiseOptions()
	opts.Samples = 3
	res, err := MeasurePairwise(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	pat, _ := barrier.Dissemination(ranks)
	pred, err := barrier.Predict(pat, res.Params(), barrier.DefaultCostOptions())
	if err != nil {
		t.Fatal(err)
	}
	meas, err := barrier.Measure(m.WithRunSeed(99), pat, 4)
	if err != nil {
		t.Fatal(err)
	}
	ratio := pred.Total / meas.MeanWorst
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("benchmark-driven prediction %g vs measurement %g (ratio %.2f)", pred.Total, meas.MeanWorst, ratio)
	}
}

func TestKernelRateMatchesGroundTruth(t *testing.T) {
	m := quietMachine(t, 2)
	res, err := KernelRate(m, 0, kernels.DAXPY, 1024, DefaultKernelBenchConfig())
	if err != nil {
		t.Fatal(err)
	}
	truth := m.KernelTime(0, kernels.DAXPY, 1024)
	if rel := relErr(res.SecondsPerApplication, truth); rel > 0.15 {
		t.Fatalf("kernel rate off by %.2f: %g vs %g", rel, res.SecondsPerApplication, truth)
	}
	if res.Rate <= 0 || res.Mflops <= 0 {
		t.Fatal("non-positive rate")
	}
	// Extrapolation is monotone in the number of applications.
	if res.Fit.Predict(1000) <= res.Fit.Predict(10) {
		t.Fatal("prediction not increasing with application count")
	}
}

func TestKernelRateDistinguishesKernels(t *testing.T) {
	// The point of Chapter 4: a DAXPY-derived rate does not describe other
	// kernels; the benchmark must give per-kernel costs that differ.
	m := quietMachine(t, 1)
	cfg := DefaultKernelBenchConfig()
	cfg.Samples = 6
	cost := func(k kernels.Kernel) float64 {
		r, err := KernelRate(m, 0, k, 1024, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.SecondsPerApplication
	}
	daxpy, dot, asum := cost(kernels.DAXPY), cost(kernels.Dot), cost(kernels.Asum)
	if daxpy <= 0 || dot <= 0 || asum <= 0 {
		t.Fatal("non-positive kernel costs")
	}
	if math.Abs(daxpy-dot)/daxpy < 0.05 && math.Abs(daxpy-asum)/daxpy < 0.05 {
		t.Fatalf("kernel costs indistinguishable: daxpy=%g dot=%g asum=%g", daxpy, dot, asum)
	}
}

func TestKernelRateValidation(t *testing.T) {
	m := quietMachine(t, 1)
	if _, err := KernelRate(nil, 0, kernels.DAXPY, 16, DefaultKernelBenchConfig()); err == nil {
		t.Error("nil machine should fail")
	}
	if _, err := KernelRate(m, 5, kernels.DAXPY, 16, DefaultKernelBenchConfig()); err == nil {
		t.Error("bad rank should fail")
	}
	if _, err := KernelRate(m, 0, kernels.DAXPY, 0, DefaultKernelBenchConfig()); err == nil {
		t.Error("zero problem size should fail")
	}
	// Zero-valued config falls back to defaults.
	if _, err := KernelRate(m, 0, kernels.DAXPY, 64, KernelBenchConfig{}); err != nil {
		t.Errorf("default config fallback failed: %v", err)
	}
}

func TestBSPBenchProducesTableRow(t *testing.T) {
	const ranks = 8
	m := quietMachine(t, ranks)
	cfg := DefaultBSPBenchConfig()
	cfg.MaxH = 128
	cfg.HStep = 32
	res, err := BSPBench(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.P != ranks {
		t.Fatalf("P = %d", res.P)
	}
	// The Xeon profile sustains on the order of a few Gflop/s for in-cache
	// DAXPY; accept a broad plausibility band.
	if res.R < 0.2e9 || res.R > 20e9 {
		t.Fatalf("computation rate %g flop/s implausible", res.R)
	}
	if res.G < 0 || res.L <= 0 {
		t.Fatalf("g=%g l=%g implausible", res.G, res.L)
	}
	// Synchronization across 8 nodes costs at least tens of microseconds,
	// i.e. tens of thousands of flops at this rate.
	if res.L < 1e3 {
		t.Fatalf("synchronization cost l=%g suspiciously small", res.L)
	}
	if len(res.RateSweep) == 0 {
		t.Fatal("rate sweep missing")
	}
	if res.String() == "" {
		t.Fatal("String() empty")
	}
	// Conversion into classic parameters validates.
	if err := res.Params().Validate(); err != nil {
		t.Fatal(err)
	}
}

// noRanks is a machine that reports no ranks.
type noRanks struct{ *platform.Machine }

func (noRanks) Procs() int { return 0 }

func TestBSPBenchValidation(t *testing.T) {
	if _, err := BSPBench(nil, DefaultBSPBenchConfig()); err == nil {
		t.Error("nil machine should fail")
	}
	m := quietMachine(t, 2)
	if _, err := BSPBench(noRanks{m}, DefaultBSPBenchConfig()); err == nil {
		t.Error("a machine without ranks should fail")
	}
	if _, err := BSPBench(m, BSPBenchConfig{}); err != nil {
		t.Errorf("zero config should fall back to defaults: %v", err)
	}
}
