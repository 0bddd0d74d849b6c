package bench

import (
	"context"
	"errors"
	"fmt"

	"hbsp/internal/bsp"
	"hbsp/internal/core"
	"hbsp/internal/kernels"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
	"hbsp/internal/stats"
)

// BSPBenchConfig configures the classic bspbench measurement.
type BSPBenchConfig struct {
	// MaxVectorSize is the largest DAXPY vector used for the rate
	// measurement (1024 in BSPEdupack's bspbench).
	MaxVectorSize int
	// MaxH is the largest h-relation used for the g/l regression (255 in
	// bspbench).
	MaxH int
	// HStep is the increment between measured h values.
	HStep int
	// Repetitions is the number of repetitions per measured point.
	Repetitions int
}

// DefaultBSPBenchConfig mirrors bspbench with a coarser h sweep to keep the
// simulated benchmark quick.
func DefaultBSPBenchConfig() BSPBenchConfig {
	return BSPBenchConfig{MaxVectorSize: 1024, MaxH: 256, HStep: 32, Repetitions: 3}
}

// RatePoint is one entry of the computation-rate sweep (Fig. 4.2).
type RatePoint struct {
	// VectorSize is the DAXPY vector length.
	VectorSize int
	// Mflops is the measured average rate at that size.
	Mflops float64
}

// BSPBenchResult holds the measured scalar BSP parameters of Table 3.1.
type BSPBenchResult struct {
	// P is the number of processes.
	P int
	// R is the computation rate in flop/s.
	R float64
	// G is the communication throughput cost in flops per 8-byte word.
	G float64
	// L is the synchronization cost in flops.
	L float64
	// RateSweep holds the per-size computation rates (Fig. 4.2).
	RateSweep []RatePoint
}

// Params converts the result into classic BSP cost parameters.
func (r *BSPBenchResult) Params() core.ClassicParams {
	return core.ClassicParams{P: r.P, R: r.R, G: r.G, L: r.L}
}

// String renders one row of Table 3.1.
func (r *BSPBenchResult) String() string {
	return fmt.Sprintf("P=%d r=%.3f Mflop/s g=%.1f l=%.1f", r.P, r.R/1e6, r.G, r.L)
}

// BSPBench reproduces the bspbench procedure of Section 3.1 on the simulated
// platform: the computation rate r is the regression gradient of DAXPY time
// against operation count over growing vector sizes, and g and l are the
// gradient and intercept of superstep time against h for growing h-relations,
// converted to flop units with r.
//
// The procedure is one superstep description (bsp.Supersteps) evaluated by
// sched.RunSupersteps, with no goroutine per process. Superstep 0 times the
// DAXPY sweep and ends with the registration exchange; each (h, repetition)
// after it is one superstep in which every process puts h single words,
// spread cyclically over the others, and synchronizes. A process' clock at
// the start of one superstep ends the previous one, so the description reads
// it once per superstep (sched.Ops.Now) and issues nothing that depends on
// it. Every field of the result is bit-identical to the goroutine-per-process
// program the description replaces (bspbench_test.go keeps it as the oracle),
// and no put allocates.
func BSPBench(m bsp.Machine, cfg BSPBenchConfig) (*BSPBenchResult, error) {
	if m == nil {
		return nil, errors.New("bench: nil machine")
	}
	if cfg.MaxVectorSize < 4 {
		cfg.MaxVectorSize = DefaultBSPBenchConfig().MaxVectorSize
	}
	if cfg.MaxH < 2 || cfg.HStep < 1 {
		def := DefaultBSPBenchConfig()
		cfg.MaxH, cfg.HStep = def.MaxH, def.HStep
	}
	if cfg.Repetitions < 1 {
		cfg.Repetitions = 1
	}
	p := m.Procs()
	var sizes []int
	for n := 4; n <= cfg.MaxVectorSize; n *= 2 {
		sizes = append(sizes, n)
	}
	hs := cfg.MaxH/cfg.HStep + 1 // h = 0, HStep, …, ≤ MaxH
	reps := cfg.Repetitions
	steps := 1 + hs*reps

	// What the description records, per rank: each DAXPY's elapsed time, and
	// the clock at the start of supersteps 1..steps (the last one: the
	// closing step), each the end of the superstep before it.
	daxpy := make([]float64, p*len(sizes))
	marks := make([]float64, p*steps)
	sp, err := bsp.Supersteps(m, nil, steps, func(step, rank int, ops sched.Ops) {
		if step == 0 {
			for i, n := range sizes {
				start := ops.Now()
				ops.Compute(sched.Work{Seconds: m.KernelTime(rank, kernels.DAXPY, n) * daxpyReps})
				daxpy[rank*len(sizes)+i] = ops.Now() - start
			}
			return
		}
		marks[rank*steps+step-1] = ops.Now()
		if step == steps || p == 1 {
			return
		}
		h := (step - 1) / reps * cfg.HStep
		perDest, extra := h/(p-1), h%(p-1)
		d := 0
		for dst := 0; dst < p; dst++ {
			if dst == rank {
				continue
			}
			count := perDest
			if d < extra {
				count++
			}
			d++
			for range count {
				ops.Put(dst, 1)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if _, err := sched.RunSupersteps(context.Background(), m, sp, simnet.DefaultOptions()); err != nil {
		return nil, err
	}

	// The computation rate averages the largest vector's rate over the
	// homogeneous process set, as bspbench does; the sweep reported is rank
	// 0's.
	res := &BSPBenchResult{P: p, RateSweep: make([]RatePoint, len(sizes))}
	rates := make([]float64, p)
	for rank := range p {
		for i, n := range sizes {
			elapsed := daxpy[rank*len(sizes)+i]
			if elapsed <= 0 {
				return nil, fmt.Errorf("bench: non-positive DAXPY time on rank %d", rank)
			}
			mflops := kernels.DAXPY.Flops(n) * daxpyReps / elapsed / 1e6
			if rank == 0 {
				res.RateSweep[i] = RatePoint{VectorSize: n, Mflops: mflops}
			}
			if i == len(sizes)-1 {
				rates[rank] = mflops * 1e6
			}
		}
	}
	r, err := stats.Mean(rates)
	if err != nil {
		return nil, err
	}
	res.R = r

	// Fit the h sweep with the worst process' median per h value, as the
	// barrier semantics make the slowest process decisive.
	xs, ts := make([]float64, hs), make([]float64, hs)
	perRep := make([]float64, reps)
	for hi := range hs {
		worst := 0.0
		for rank := range p {
			at := marks[rank*steps+hi*reps:]
			for rep := range perRep {
				perRep[rep] = at[rep+1] - at[rep]
			}
			med, err := stats.MedianInPlace(perRep)
			if err != nil {
				return nil, err
			}
			if med > worst {
				worst = med
			}
		}
		xs[hi], ts[hi] = float64(hi*cfg.HStep), worst
	}
	fit, err := stats.LinearFit(xs, ts)
	if err != nil {
		return nil, err
	}
	g := fit.Gradient * res.R
	l := fit.Intercept * res.R
	if g < 0 {
		g = 0
	}
	if l < 0 {
		l = 0
	}
	res.G = g
	res.L = l
	return res, nil
}

// daxpyReps is how many times each DAXPY of the rate sweep is applied in one
// timed interval.
const daxpyReps = 8
