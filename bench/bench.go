// Package bench is the public surface of the benchmark procedures that
// measure a (simulated) platform the way the thesis measures its physical
// clusters: the classic scalar bspbench parameters, per-kernel computational
// rates, and the pairwise latency/overhead/bandwidth matrices that feed the
// collective cost model (collective.Params).
package bench

import (
	"hbsp/internal/bench"

	"hbsp/bsp"
	"hbsp/cluster"
	"hbsp/collective"
	"hbsp/kernels"
	"hbsp/sim"
)

// BSPBenchConfig configures the classic bspbench measurement.
type BSPBenchConfig = bench.BSPBenchConfig

// BSPBenchResult holds the classic scalar BSP parameters of one run.
type BSPBenchResult = bench.BSPBenchResult

// RatePoint is one (h, time) sample of the bspbench h-relation sweep.
type RatePoint = bench.RatePoint

// PairwiseOptions configure the pairwise parameter benchmark.
type PairwiseOptions = bench.PairwiseOptions

// PairwiseResult holds the benchmarked pairwise parameter matrices; its
// Params method converts them into collective.Params.
type PairwiseResult = bench.PairwiseResult

// KernelBenchConfig configures the kernel rate measurement.
type KernelBenchConfig = bench.KernelBenchConfig

// KernelBenchResult holds one kernel's measured rate.
type KernelBenchResult = bench.KernelBenchResult

// DefaultBSPBenchConfig returns the standard bspbench configuration.
func DefaultBSPBenchConfig() BSPBenchConfig { return bench.DefaultBSPBenchConfig() }

// BSPBench measures the classic scalar BSP parameters on the machine.
func BSPBench(m bsp.Machine, cfg BSPBenchConfig) (*BSPBenchResult, error) {
	return bench.BSPBench(m, cfg)
}

// DefaultPairwiseOptions returns the standard pairwise benchmark options.
func DefaultPairwiseOptions() PairwiseOptions { return bench.DefaultPairwiseOptions() }

// MeasurePairwise benchmarks the pairwise latency, overhead and inverse
// bandwidth matrices of the machine.
func MeasurePairwise(m sim.Machine, opts PairwiseOptions) (*PairwiseResult, error) {
	return bench.MeasurePairwise(m, opts)
}

// ModelParams benchmarks the machine and returns the parameter matrices the
// collective cost model consumes (reps repetitions per pair).
func ModelParams(m sim.Machine, reps int) (collective.Params, error) {
	return bench.ModelParams(m, reps)
}

// DefaultKernelBenchConfig returns the standard kernel benchmark
// configuration.
func DefaultKernelBenchConfig() KernelBenchConfig { return bench.DefaultKernelBenchConfig() }

// KernelRate measures the sustainable rate of one kernel on one rank.
func KernelRate(m *cluster.Machine, rank int, k kernels.Kernel, problemSize int, cfg KernelBenchConfig) (*KernelBenchResult, error) {
	return bench.KernelRate(m, rank, k, problemSize, cfg)
}
