package experiments

import (
	"fmt"

	"hbsp/internal/bench"
	"hbsp/internal/bsp"
	"hbsp/internal/core"
	"hbsp/internal/kernels"
	"hbsp/internal/platform"
)

// BSPBenchRow is one row of Table 3.1.
type BSPBenchRow struct {
	P int
	R float64 // flop/s
	G float64 // flops/word
	L float64 // flops
}

// Table3_1 reproduces Table 3.1: bspbench parameter values on the Xeon 8×2×4
// platform for growing process counts.
func Table3_1(prof *platform.Profile, opts Options) ([]BSPBenchRow, error) {
	opts = opts.normalize()
	var sweep []int
	for p := 8; p <= opts.MaxProcsXeon; p += 8 {
		sweep = append(sweep, p)
	}
	draws := newDraws(prof.Seed, opts.MaxProcsXeon)
	return ParallelSeries(sweep, func(p int) ([]BSPBenchRow, error) {
		m, err := prof.Machine(p)
		if err != nil {
			return nil, err
		}
		m = m.WithDraws(draws)
		cfg := bench.DefaultBSPBenchConfig()
		cfg.MaxH = 128
		cfg.HStep = 32
		cfg.Repetitions = opts.Reps
		if cfg.Repetitions > 5 {
			cfg.Repetitions = 5
		}
		res, err := bench.BSPBench(m, cfg)
		if err != nil {
			return nil, err
		}
		return []BSPBenchRow{{P: p, R: res.R, G: res.G, L: res.L}}, nil
	})
}

// Table3_1Table formats the rows like the thesis table (rate in Mflop/s).
func Table3_1Table(rows []BSPBenchRow) *Table {
	t := &Table{Title: "Table 3.1: BSPBench parameter values (Xeon 8x2x4)", Columns: []string{"P", "r [Mflop/s]", "g [flops]", "l [flops]"}}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.P), fmt.Sprintf("%.3f", r.R/1e6), fmt.Sprintf("%.1f", r.G), fmt.Sprintf("%.1f", r.L))
	}
	return t
}

// InnerProductPoint is one point of Fig. 3.2: the measured bspinprod time and
// the classic BSP estimate.
type InnerProductPoint struct {
	P         int
	Measured  float64
	Estimated float64
}

// Fig3_2 reproduces Fig. 3.2: strong-scaling timings of the bspinprod program
// against the classic BSP estimate built from the Table 3.1 parameters. The
// thesis' headline observation — the estimate deviates by orders of magnitude
// and has a spurious minimum — is preserved because the scalar l parameter
// wildly overprices the per-superstep synchronization of a tiny communication
// volume.
func Fig3_2(prof *platform.Profile, paramRows []BSPBenchRow, n int, opts Options) ([]InnerProductPoint, error) {
	opts = opts.normalize()
	var out []InnerProductPoint
	for _, row := range paramRows {
		m, err := prof.Machine(row.P)
		if err != nil {
			return nil, err
		}
		measured, err := measureInnerProduct(m, n)
		if err != nil {
			return nil, err
		}
		classic := core.ClassicParams{P: row.P, R: row.R, G: row.G, L: row.L}
		est, err := classic.InnerProductCost(n)
		if err != nil {
			return nil, err
		}
		out = append(out, InnerProductPoint{P: row.P, Measured: measured, Estimated: est})
	}
	return out, nil
}

// measureInnerProduct times the bspinprod program (two computation supersteps
// and one communication superstep) on the simulated machine.
func measureInnerProduct(m *platform.Machine, n int) (float64, error) {
	res, err := bsp.Run(m, func(ctx *bsp.Ctx) error {
		p := ctx.NProcs()
		local := n / p
		partials := make([]float64, p)
		ctx.PushReg("partials", partials)
		if err := ctx.Sync(); err != nil {
			return err
		}
		// Local sums of products.
		ctx.ComputeKernel(kernels.Dot, local, 1)
		for d := 0; d < p; d++ {
			if err := ctx.Put(d, "partials", ctx.Pid(), []float64{1}); err != nil {
				return err
			}
		}
		if err := ctx.Sync(); err != nil {
			return err
		}
		// Accumulation of the partial sums.
		ctx.ComputeKernel(kernels.Asum, p, 1)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return res.MakeSpan, nil
}

// RatePoint is one point of Fig. 4.2 (bspbench computation rate vs. vector
// size).
type RatePoint struct {
	VectorSize int
	Mflops     float64
}

// Fig4_2 reproduces Fig. 4.2 on a single node of the Xeon platform.
func Fig4_2(prof *platform.Profile) ([]RatePoint, error) {
	m, err := prof.Machine(1)
	if err != nil {
		return nil, err
	}
	res, err := bench.BSPBench(m, bench.DefaultBSPBenchConfig())
	if err != nil {
		return nil, err
	}
	var out []RatePoint
	for _, p := range res.RateSweep {
		out = append(out, RatePoint{VectorSize: p.VectorSize, Mflops: p.Mflops})
	}
	return out, nil
}

// KernelPredictionPoint is one point of Figs. 4.3/4.4: predicted and measured
// execution time of a kernel for a growing number of applications, plus the
// prediction extrapolated from the DAXPY-only bspbench rate.
type KernelPredictionPoint struct {
	Kernel        string
	Applications  int
	Predicted     float64
	Measured      float64
	MflopsDerived float64
	RelativeError float64
}

// Fig4_3 reproduces Figs. 4.3 and 4.4: per-kernel benchmark predictions
// against measured execution, for the DAXPY and 5-point stencil kernels at a
// fixed 1024-element problem size, plus the misprediction obtained by scaling
// the DAXPY Mflop/s figure.
func Fig4_3(prof *platform.Profile, opts Options) ([]KernelPredictionPoint, error) {
	opts = opts.normalize()
	m, err := prof.Machine(1)
	if err != nil {
		return nil, err
	}
	cfg := bench.DefaultKernelBenchConfig()
	daxpy, err := bench.KernelRate(m, 0, kernels.DAXPY, 1024, cfg)
	if err != nil {
		return nil, err
	}
	profiles := map[string]*bench.KernelBenchResult{"daxpy": daxpy}
	stencilRes, err := bench.KernelRate(m, 0, kernels.Stencil5, 1024, cfg)
	if err != nil {
		return nil, err
	}
	profiles["stencil5"] = stencilRes

	var out []KernelPredictionPoint
	for _, name := range []string{"daxpy", "stencil5"} {
		prof := profiles[name]
		k := prof.Kernel
		for apps := 1; apps <= 1<<16; apps *= 16 {
			measured := m.KernelTime(0, k, 1024) * float64(apps)
			predicted := prof.SecondsPerApplication * float64(apps)
			// The "Mflops" prediction prices every kernel with the DAXPY
			// rate, the misprediction Fig. 4.3 highlights.
			mflopsDerived := k.Flops(1024) * float64(apps) / (daxpy.Mflops * 1e6)
			rel := 0.0
			if measured > 0 {
				rel = abs(predicted-measured) / measured
			}
			out = append(out, KernelPredictionPoint{
				Kernel:        name,
				Applications:  apps,
				Predicted:     predicted,
				Measured:      measured,
				MflopsDerived: mflopsDerived,
				RelativeError: rel,
			})
		}
	}
	return out, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BLASPoint is one point of Figs. 4.5/4.6: the time of one application of an
// L1 BLAS kernel as a function of its memory footprint.
type BLASPoint struct {
	Kernel         string
	FootprintBytes float64
	Seconds        float64
}

// Fig4_5 reproduces Figs. 4.5 (in-cache footprints) and 4.6 (footprints
// crossing the cache boundary) on the Athlon X2 profile: per-kernel time as a
// function of memory use, showing the linear in-cache region and the slope
// break beyond it.
func Fig4_5(prof *platform.Profile, maxBytes float64) ([]BLASPoint, error) {
	if maxBytes <= 0 {
		maxBytes = 512 * 1024
	}
	var out []BLASPoint
	for _, k := range kernels.BLAS1() {
		for bytes := 4096.0; bytes <= maxBytes; bytes *= 2 {
			n := int(bytes / float64(k.WordsPerElement*8))
			if n < 1 {
				continue
			}
			out = append(out, BLASPoint{
				Kernel:         k.Name,
				FootprintBytes: k.FootprintBytes(n),
				Seconds:        prof.KernelTime(0, k, n),
			})
		}
	}
	return out, nil
}
