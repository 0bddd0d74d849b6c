package hbsp

// The repository-level benchmark harness: one testing.B benchmark per table
// and figure of the thesis' evaluation (see the package map in README.md),
// plus ablation benchmarks for the design choices the cost model
// depends on. Every benchmark wraps the corresponding function of
// internal/experiments with reduced sweep settings so that
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation in a few minutes; run cmd/experiments
// -full for the complete sweeps.

import (
	"fmt"
	"testing"

	"hbsp/internal/adapt"
	"hbsp/internal/barrier"
	"hbsp/internal/bsp"
	"hbsp/internal/experiments"
	"hbsp/internal/kernels"
	"hbsp/internal/platform"
	"hbsp/internal/simnet"
	"hbsp/internal/stencil"
	"hbsp/internal/topology"
	"hbsp/internal/trace"
)

func benchOptions() experiments.Options {
	return experiments.Options{
		Reps:              4,
		ProcStep:          16,
		MaxProcsXeon:      64,
		MaxProcsOpteron:   96,
		StencilLargeN:     768,
		StencilSmallN:     192,
		StencilIterations: 3,
		Synthetic:         true,
	}
}

// --- Chapter 3 -------------------------------------------------------------

func BenchmarkTable3_1_BSPBenchParams(b *testing.B) {
	prof := platform.Xeon8x2x4()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3_1(prof, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig3_2_InnerProduct(b *testing.B) {
	prof := platform.Xeon8x2x4()
	rows, err := experiments.Table3_1(prof, benchOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3_2(prof, rows, 1<<22, benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Chapter 4 -------------------------------------------------------------

func BenchmarkFig4_2_BspbenchRates(b *testing.B) {
	prof := platform.Xeon8x2x4()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4_2(prof); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_3_KernelPredictions(b *testing.B) {
	prof := platform.Xeon8x2x4()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4_3(prof, benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_5_BLASInCache(b *testing.B) {
	prof := platform.AthlonX2()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4_5(prof, 60*1024); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_6_BLASOutOfCache(b *testing.B) {
	prof := platform.AthlonX2()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4_5(prof, 512*1024); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Chapter 5 -------------------------------------------------------------

func BenchmarkFig5_2_BarrierMatrices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, gen := range []func() (*barrier.Pattern, error){
			func() (*barrier.Pattern, error) { return barrier.Linear(4, 0) },
			func() (*barrier.Pattern, error) { return barrier.Dissemination(4) },
			func() (*barrier.Pattern, error) { return barrier.Tree(4) },
		} {
			pat, err := gen()
			if err != nil {
				b.Fatal(err)
			}
			if err := pat.Verify(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig5_6_BarrierXeon(b *testing.B) {
	prof := platform.Xeon8x2x4()
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		experiments.ResetParamsCache()
		if _, err := experiments.Fig5_6Series(prof, opts.MaxProcsXeon, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_10_BarrierOpteron(b *testing.B) {
	prof := platform.Opteron12x2x6()
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		experiments.ResetParamsCache()
		if _, err := experiments.Fig5_6Series(prof, opts.MaxProcsOpteron, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Chapter 6 -------------------------------------------------------------

func BenchmarkFig6_3_SyncPayloadXeon(b *testing.B) {
	prof := platform.Xeon8x2x4()
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		experiments.ResetParamsCache()
		if _, err := experiments.Fig6_3Series(prof, opts.MaxProcsXeon, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6_4_SyncPayloadOpteron(b *testing.B) {
	prof := platform.Opteron12x2x6()
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		experiments.ResetParamsCache()
		if _, err := experiments.Fig6_3Series(prof, opts.MaxProcsOpteron, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Chapter 7 -------------------------------------------------------------

func BenchmarkTable7_1_SSSClustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table7_1(platform.Xeon8x2x4(), 60); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Table7_1(platform.Opteron10x2x6(), 115); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7_4_HybridBarriersXeon(b *testing.B) {
	prof := platform.Xeon8x2x4()
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		experiments.ResetParamsCache()
		if _, err := experiments.Fig7_4Series(prof, opts.MaxProcsXeon, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7_6_AdaptedBarriersOpteron(b *testing.B) {
	prof := platform.Opteron12x2x6()
	opts := benchOptions()
	opts.MaxProcsOpteron = 48
	for i := 0; i < b.N; i++ {
		experiments.ResetParamsCache()
		if _, err := experiments.Fig7_4Series(prof, opts.MaxProcsOpteron, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Chapter 8 -------------------------------------------------------------

func BenchmarkTable8_1_Configurations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Table8_1(benchOptions()); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable8_2_MPIWallTimes(b *testing.B) {
	prof := platform.Xeon8x2x4()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table8_2(prof, benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_4_StencilScalingAll(b *testing.B) {
	prof := platform.Xeon8x2x4()
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8_4Series(prof, opts.StencilLargeN, nil, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_5_StencilScalingBSPOnly(b *testing.B) {
	prof := platform.Xeon8x2x4()
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8_4Series(prof, opts.StencilLargeN, []string{"bsp", "bsp-serial"}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_6_StencilScalingSelectedLarge(b *testing.B) {
	prof := platform.Xeon8x2x4()
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8_4Series(prof, opts.StencilLargeN, []string{"bsp", "mpi+r", "hybrid"}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_7_StencilScalingSelectedSmall(b *testing.B) {
	prof := platform.Xeon8x2x4()
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8_4Series(prof, opts.StencilSmallN, []string{"bsp", "mpi+r", "hybrid"}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_10_StencilPrediction(b *testing.B) {
	prof := platform.Xeon8x2x4()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8_10Series(prof, benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_18_OverlapAdaptation(b *testing.B) {
	prof := platform.Xeon8x2x4()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8_18Series(prof, 16, benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (cost-model design choices) -----------------------

// benchParams builds ground-truth cost-model parameters for ablations.
func benchParams(b *testing.B, prof *platform.Profile, procs int) barrier.Params {
	b.Helper()
	params, err := stencil.GroundTruthParams(prof, procs)
	if err != nil {
		b.Fatal(err)
	}
	return params
}

func BenchmarkAblationPostedReceive(b *testing.B) {
	prof := platform.Xeon8x2x4()
	params := benchParams(b, prof, 64)
	pat, err := barrier.Tree(64)
	if err != nil {
		b.Fatal(err)
	}
	for _, on := range []bool{true, false} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			opts := barrier.DefaultCostOptions()
			opts.PostedReceive = on
			total := 0.0
			for i := 0; i < b.N; i++ {
				pred, err := barrier.Predict(pat, params, opts)
				if err != nil {
					b.Fatal(err)
				}
				total += pred.Total
			}
			b.ReportMetric(total/float64(b.N)*1e6, "us/predicted-barrier")
		})
	}
}

func BenchmarkAblationAckFactor(b *testing.B) {
	prof := platform.Xeon8x2x4()
	params := benchParams(b, prof, 64)
	pat, err := barrier.Dissemination(64)
	if err != nil {
		b.Fatal(err)
	}
	for _, factor := range []float64{1, 2} {
		name := "factor1"
		if factor == 2 {
			name = "factor2"
		}
		b.Run(name, func(b *testing.B) {
			opts := barrier.DefaultCostOptions()
			opts.AckFactor = factor
			total := 0.0
			for i := 0; i < b.N; i++ {
				pred, err := barrier.Predict(pat, params, opts)
				if err != nil {
					b.Fatal(err)
				}
				total += pred.Total
			}
			b.ReportMetric(total/float64(b.N)*1e6, "us/predicted-barrier")
		})
	}
}

func BenchmarkAblationPlacementPolicy(b *testing.B) {
	prof := platform.Xeon8x2x4()
	prof.NoiseRel = 0
	pat, err := barrier.Dissemination(16)
	if err != nil {
		b.Fatal(err)
	}
	for _, policy := range []topology.PlacementPolicy{topology.RoundRobin, topology.Block} {
		b.Run(policy.String(), func(b *testing.B) {
			pl, err := prof.PlaceWith(16, policy)
			if err != nil {
				b.Fatal(err)
			}
			m := prof.MachineFor(pl)
			total := 0.0
			for i := 0; i < b.N; i++ {
				meas, err := barrier.Measure(m, pat, 3)
				if err != nil {
					b.Fatal(err)
				}
				total += meas.MeanWorst
			}
			b.ReportMetric(total/float64(b.N)*1e6, "us/barrier")
		})
	}
}

func BenchmarkAblationEagerVsPostponed(b *testing.B) {
	prof := platform.Xeon8x2x4()
	prof.NoiseRel = 0
	cfg := stencil.Config{N: 512, Iterations: 2, C: 0.2, Synthetic: true}
	m, err := prof.Machine(16)
	if err != nil {
		b.Fatal(err)
	}
	for _, eager := range []bool{true, false} {
		name := "postponed"
		fraction := 0.0
		if eager {
			name = "eager"
			fraction = 1.0
		}
		b.Run(name, func(b *testing.B) {
			total := 0.0
			for i := 0; i < b.N; i++ {
				res, err := stencil.RunBSP(m, cfg, fraction)
				if err != nil {
					b.Fatal(err)
				}
				total += res.PerIteration
			}
			b.ReportMetric(total/float64(b.N)*1e6, "us/iteration")
		})
	}
}

func BenchmarkAblationSingleRateVsKernelRates(b *testing.B) {
	// The Chapter 4 argument: pricing every kernel with the DAXPY rate
	// mispredicts other kernels; per-kernel rates do not.
	prof := platform.Xeon8x2x4()
	n := 1024
	daxpyTime := prof.KernelTime(0, kernels.DAXPY, n)
	for _, mode := range []string{"single-rate", "per-kernel"} {
		b.Run(mode, func(b *testing.B) {
			worst := 0.0
			for i := 0; i < b.N; i++ {
				for _, k := range []kernels.Kernel{kernels.Dot, kernels.Stencil5, kernels.Asum} {
					truth := prof.KernelTime(0, k, n)
					var predicted float64
					if mode == "single-rate" {
						predicted = daxpyTime * k.FlopsPerElement / kernels.DAXPY.FlopsPerElement
					} else {
						predicted = truth
					}
					rel := (predicted - truth) / truth
					if rel < 0 {
						rel = -rel
					}
					if rel > worst {
						worst = rel
					}
				}
			}
			b.ReportMetric(worst*100, "worst-rel-err-%")
		})
	}
}

func BenchmarkAdaptGreedyConstruction(b *testing.B) {
	prof := platform.Xeon8x2x4()
	params := benchParams(b, prof, 64)
	for i := 0; i < b.N; i++ {
		if _, err := adapt.Greedy(params, barrier.DefaultCostOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Simulator hot path ------------------------------------------------------
//
// The three benchmarks below track the mailbox/pooling work of the simulator
// itself (see README "Simulator performance"; the system-level figures are the
// per-layer metrics of benchmark/): message
// matching under many pending (src, tag) pairs, the dissemination count
// exchange that ends every BSP superstep, and the heaviest collective the
// schedule engine generates. All run with ReportAllocs so the allocation
// behaviour of the hot path stays visible in `go test -bench`.

// simBenchMachine returns the shared noise-free benchmark machine
// (platform.XeonClusterMachine — the same platform benchmark/ measures).
func simBenchMachine(b *testing.B, procs int) *platform.Machine {
	b.Helper()
	m, err := platform.XeonClusterMachine(procs)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkMailboxTake(b *testing.B) {
	// Rank 0 injects many messages with distinct tags; rank 1 drains them in
	// reverse tag order, so every receive has to match against a full pending
	// set — the worst case for a linear-scan mailbox, O(1) for an indexed one.
	// Both variants run the one (src, tag) hash index: "clustered" keeps the
	// tags consecutive, "spread" puts them 2^16 apart.
	const msgs = 512
	for _, bench := range []struct {
		name   string
		stride int
	}{
		{name: "clustered", stride: 1},
		{name: "spread", stride: 1 << 16},
	} {
		b.Run(bench.name, func(b *testing.B) {
			m := simBenchMachine(b, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := simnet.Run(m, func(p *simnet.Proc) error {
					switch p.Rank() {
					case 0:
						for t := 0; t < msgs; t++ {
							p.Post(1, t*bench.stride, 8, nil)
						}
					case 1:
						for t := msgs - 1; t >= 0; t-- {
							p.Recv(0, t*bench.stride)
						}
					}
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSyncDissemination(b *testing.B) {
	// The dissemination count exchange plus drain at P=64: the innermost loop
	// of every BSP superstep, on the shared fixed workload
	// (experiments.SyncExchangeProgram, also measured by the benchmark's
	// bsp.sync_gate_ms and bsp.sync_concurrent_ms).
	m := simBenchMachine(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bsp.Run(m, experiments.SyncExchangeProgram); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTotalExchange(b *testing.B) {
	// The heaviest collective the schedule engine produces: P² messages per
	// execution, here through the direct evaluator; on the concurrent engine
	// the P=256 point is the benchmark's simnet.te_concurrent_ms.p256.
	for _, procs := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("P=%d", procs), func(b *testing.B) {
			m := simBenchMachine(b, procs)
			pat, err := barrier.TotalExchange(procs, 64)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := barrier.Measure(m, pat, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSimulatorBarrierThroughput(b *testing.B) {
	// Raw simulator throughput: one dissemination barrier execution on 64
	// ranks per iteration.
	prof := platform.Xeon8x2x4()
	prof.NoiseRel = 0
	m, err := prof.Machine(64)
	if err != nil {
		b.Fatal(err)
	}
	pat, err := barrier.Dissemination(64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := barrier.Measure(m, pat, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceOverhead measures the cost of the trace subsystem on the
// send_recv ring workload (the identical shared program the benchmark's
// simnet.send_recv_ms.p256 measures — experiments.SendRecvRingProgram): "off"
// runs with trace.Disabled — the nil-recorder fast path, whose per-event cost
// must stay a single pointer test — and "on" runs with a recorder attached,
// paying one event append per send, receive-wait and compute.
func BenchmarkTraceOverhead(b *testing.B) {
	m := simBenchMachine(b, 16)
	ring := experiments.SendRecvRingProgram
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			o := simnet.DefaultOptions()
			if mode == "on" {
				o.Recorder = trace.NewRecorder()
			} else {
				o.Recorder = trace.Disabled
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := simnet.Run(m, ring, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Collective schedules ---------------------------------------------------

func BenchmarkCollectiveComparison(b *testing.B) {
	prof := platform.Xeon8x2x4()
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		experiments.ResetParamsCache()
		points, err := experiments.CollectiveSeries(prof, 32, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) == 0 {
			b.Fatal("no collective points")
		}
	}
}

func BenchmarkAdaptedSynchronizer(b *testing.B) {
	prof := platform.Xeon8x2x4()
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		experiments.ResetParamsCache()
		points, err := experiments.AdaptedSyncSeries(prof, 32, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) == 0 {
			b.Fatal("no adapted-sync points")
		}
	}
}
