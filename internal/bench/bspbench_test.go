package bench

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"hbsp/internal/bsp"
	"hbsp/internal/kernels"
	"hbsp/internal/platform"
	"hbsp/internal/stats"
)

// bspBenchGoroutines is the bspbench procedure as a goroutine-per-process
// BSP program, each word of an h-relation its own put: the oracle BSPBench's
// superstep description is held to bit for bit.
func bspBenchGoroutines(m bsp.Machine, cfg BSPBenchConfig) (*BSPBenchResult, error) {
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
	rateByRank := make([][]RatePoint, p)
	hTimes := make([][]float64, p)

	_, err := bsp.Run(m, func(ctx *bsp.Ctx) error {
		rank := ctx.Pid()
		var sweep []RatePoint
		for n := 4; n <= cfg.MaxVectorSize; n *= 2 {
			const reps = 8
			start := ctx.Time()
			ctx.ComputeKernel(kernels.DAXPY, n, reps)
			elapsed := ctx.Time() - start
			if elapsed <= 0 {
				return fmt.Errorf("bench: non-positive DAXPY time on rank %d", rank)
			}
			mflops := kernels.DAXPY.Flops(n) * reps / elapsed / 1e6
			sweep = append(sweep, RatePoint{VectorSize: n, Mflops: mflops})
		}
		rateByRank[rank] = sweep

		area := make([]float64, cfg.MaxH+p)
		ctx.PushReg("bspbench", area)
		if err := ctx.Sync(); err != nil {
			return err
		}
		var times []float64
		for h := 0; h <= cfg.MaxH; h += cfg.HStep {
			var perRep []float64
			for rep := 0; rep < cfg.Repetitions; rep++ {
				start := ctx.Time()
				if p > 1 && h > 0 {
					perDest := h / (p - 1)
					extra := h % (p - 1)
					word := []float64{float64(rank)}
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
						for w := 0; w < count; w++ {
							if err := ctx.Put(dst, "bspbench", w, word); err != nil {
								return err
							}
						}
					}
				}
				if err := ctx.Sync(); err != nil {
					return err
				}
				perRep = append(perRep, ctx.Time()-start)
			}
			med, err := stats.Median(perRep)
			if err != nil {
				return err
			}
			times = append(times, med)
		}
		hTimes[rank] = times
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &BSPBenchResult{P: p}
	res.RateSweep = rateByRank[0]
	var rates []float64
	for _, sweep := range rateByRank {
		rates = append(rates, sweep[len(sweep)-1].Mflops*1e6)
	}
	r, err := stats.Mean(rates)
	if err != nil {
		return nil, err
	}
	res.R = r
	var hs, ts []float64
	idx := 0
	for h := 0; h <= cfg.MaxH; h += cfg.HStep {
		worst := 0.0
		for rank := 0; rank < p; rank++ {
			if hTimes[rank][idx] > worst {
				worst = hTimes[rank][idx]
			}
		}
		hs = append(hs, float64(h))
		ts = append(ts, worst)
		idx++
	}
	fit, err := stats.LinearFit(hs, ts)
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

// sameResult reports whether two results agree in every field, bit for bit.
func sameResult(a, b *BSPBenchResult) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.P != b.P || !eq(a.R, b.R) || !eq(a.G, b.G) || !eq(a.L, b.L) || len(a.RateSweep) != len(b.RateSweep) {
		return false
	}
	for i := range a.RateSweep {
		if a.RateSweep[i].VectorSize != b.RateSweep[i].VectorSize || !eq(a.RateSweep[i].Mflops, b.RateSweep[i].Mflops) {
			return false
		}
	}
	return true
}

// TestBSPBenchMatchesReplay holds BSPBench's superstep description, evaluated
// with no process goroutine, to the goroutine-per-process program with a put
// per word: every field of the result bit for bit, across process counts
// (one, two, odd, a prime, a full machine), both platforms, a noise-draw memo
// shared by both runs or none, and h sweeps that do and do not end on MaxH at
// one and five repetitions.
func TestBSPBenchMatchesReplay(t *testing.T) {
	configs := []BSPBenchConfig{
		DefaultBSPBenchConfig(),
		{MaxVectorSize: 1024, MaxH: 130, HStep: 32, Repetitions: 1},
		{MaxVectorSize: 1024, MaxH: 130, HStep: 32, Repetitions: 5},
	}
	for _, prof := range []*platform.Profile{platform.Xeon8x2x4(), platform.Opteron12x2x6()} {
		for _, memo := range []bool{false, true} {
			var draws *platform.Draws
			if memo {
				draws = platform.NewDraws(prof.Seed, 64)
			}
			for _, p := range []int{1, 2, 3, 8, 17, 64} {
				m, err := prof.Machine(p)
				if err != nil {
					t.Fatal(err)
				}
				if draws != nil {
					m = m.WithDraws(draws)
				}
				for ci, cfg := range configs {
					tag := fmt.Sprintf("%s P=%d memo=%t config=%d", prof.Name, p, memo, ci)
					got, err := BSPBench(m, cfg)
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					want, err := bspBenchGoroutines(m, cfg)
					if err != nil {
						t.Fatalf("%s: oracle: %v", tag, err)
					}
					if !sameResult(got, want) {
						t.Errorf("%s:\n got %+v\nwant %+v", tag, got, want)
					}
				}
			}
		}
	}
}

// TestBSPBenchFootprint holds BSPBench's allocations to its supersteps, not
// its puts: at P = 32 the sweep to h = 256 puts 8× the words of the sweep to
// h = 32 in 4.5× the supersteps, and may allocate at most 64 objects more. A
// put that allocates — a message, its payload or its record — fails it.
func TestBSPBenchFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations would be counted")
	}
	m := quietMachine(t, 32)
	mallocs := func(maxH int) uint64 {
		cfg := DefaultBSPBenchConfig()
		cfg.MaxH = maxH
		if _, err := BSPBench(m, cfg); err != nil { // warm the evaluator pool
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := BSPBench(m, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	small, large := mallocs(32), mallocs(256)
	t.Logf("mallocs: MaxH 32: %d, MaxH 256: %d", small, large)
	if large > small+64 {
		t.Errorf("BSPBench at MaxH 256 allocates %d objects, at MaxH 32 %d: more than 64 apart", large, small)
	}
}

// BenchmarkBSPBench times the default bspbench procedure and reports the
// puts it evaluates per second of wall time.
func BenchmarkBSPBench(b *testing.B) {
	for _, p := range []int{16, 64} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			m, err := platform.Xeon8x2x4().Machine(p)
			if err != nil {
				b.Fatal(err)
			}
			cfg := DefaultBSPBenchConfig()
			puts := 0
			if p > 1 {
				for h := 0; h <= cfg.MaxH; h += cfg.HStep {
					puts += p * h * cfg.Repetitions
				}
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := BSPBench(m, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(puts)*float64(b.N)/b.Elapsed().Seconds(), "puts/s")
		})
	}
}
