package bench

import (
	"errors"
	"fmt"

	"hbsp/internal/kernels"
	"hbsp/internal/platform"
	"hbsp/internal/simnet"
	"hbsp/internal/stats"
)

// KernelBenchConfig configures the kernel-rate benchmark of Chapter 4.
type KernelBenchConfig struct {
	// Samples is the number of timing samples per iteration count (the
	// thesis uses 30).
	Samples int
	// MaxIterationsLog2 bounds the iteration-count sweep: counts grow as
	// powers of two from 2 up to 2^MaxIterationsLog2 (the thesis uses 12).
	MaxIterationsLog2 int
	// Confidence is the Student-t confidence level of the outlier filter.
	Confidence float64
}

// DefaultKernelBenchConfig mirrors the thesis' choices, scaled down where the
// simulator's determinism makes large sample counts unnecessary.
func DefaultKernelBenchConfig() KernelBenchConfig {
	return KernelBenchConfig{Samples: 12, MaxIterationsLog2: 8, Confidence: 0.95}
}

// KernelBenchResult is the calibrated rate of one kernel at one problem size
// on one processing element.
type KernelBenchResult struct {
	// Kernel is the benchmarked kernel.
	Kernel kernels.Kernel
	// ProblemSize is the per-application problem size in elements.
	ProblemSize int
	// SecondsPerApplication is the regression gradient: the sustained cost
	// of one kernel application.
	SecondsPerApplication float64
	// Rate is the sustained rate in kernel applications per second.
	Rate float64
	// Mflops is the corresponding floating-point rate in Mflop/s, the unit
	// of Figs. 4.2/4.3.
	Mflops float64
	// Fit is the underlying least-squares fit of time against iteration
	// count.
	Fit stats.Regression
	// Resampled is the total number of outlier samples that were
	// re-collected.
	Resampled int
}

// KernelRate benchmarks one kernel at a fixed problem size on one rank of the
// machine, following Section 4.1: for growing iteration counts it collects
// timing samples, filters outliers against a Student-t interval, and fits the
// per-iteration cost by least squares through the sample means.
func KernelRate(m *platform.Machine, rank int, k kernels.Kernel, problemSize int, cfg KernelBenchConfig) (*KernelBenchResult, error) {
	if m == nil {
		return nil, errors.New("bench: nil machine")
	}
	if rank < 0 || rank >= m.Procs() {
		return nil, fmt.Errorf("bench: rank %d out of range", rank)
	}
	if problemSize < 1 {
		return nil, errors.New("bench: problem size must be positive")
	}
	if cfg.Samples < 2 {
		cfg.Samples = DefaultKernelBenchConfig().Samples
	}
	if cfg.MaxIterationsLog2 < 1 {
		cfg.MaxIterationsLog2 = DefaultKernelBenchConfig().MaxIterationsLog2
	}
	if cfg.Confidence <= 0 || cfg.Confidence >= 1 {
		cfg.Confidence = 0.95
	}

	var xs, ys []float64
	resampled := 0
	filter := stats.OutlierFilter{Confidence: cfg.Confidence, MaxRounds: 8}

	_, err := simnet.Run(m, func(p *simnet.Proc) error {
		if p.Rank() != rank {
			return nil
		}
		perApp := m.KernelTime(rank, k, problemSize)
		for logIters := 1; logIters <= cfg.MaxIterationsLog2; logIters++ {
			iters := 1 << logIters
			sample := func() float64 {
				start := p.Now()
				for it := 0; it < iters; it++ {
					p.Compute(perApp)
				}
				return (p.Now() - start) / float64(iters)
			}
			res, err := filter.Collect(cfg.Samples, sample)
			if err != nil {
				return err
			}
			resampled += res.Resampled
			mean, err := stats.Mean(res.Values)
			if err != nil {
				return err
			}
			xs = append(xs, float64(iters))
			ys = append(ys, mean*float64(iters))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	fit, err := stats.LinearFit(xs, ys)
	if err != nil {
		return nil, err
	}
	if fit.Gradient <= 0 {
		return nil, fmt.Errorf("bench: kernel %s produced a non-positive rate", k.Name)
	}
	res := &KernelBenchResult{
		Kernel:                k,
		ProblemSize:           problemSize,
		SecondsPerApplication: fit.Gradient,
		Rate:                  1 / fit.Gradient,
		Fit:                   fit,
		Resampled:             resampled,
	}
	res.Mflops = k.Flops(problemSize) / fit.Gradient / 1e6
	return res, nil
}
