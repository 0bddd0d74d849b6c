package main

import (
	"context"
	"fmt"
	"time"

	"hbsp/bench"
	"hbsp/bsp"
	"hbsp/cluster"
	"hbsp/collective"
	"hbsp/experiments"
	ifault "hbsp/internal/fault"
	isched "hbsp/internal/sched"
	"hbsp/kernels"
	"hbsp/sched"
	"hbsp/sim"
	"hbsp/stencil"
)

// The traced pass of the library workloads runs in a child of its own: the
// same list with a span around every call into a layer (recorded by the
// operations themselves through libCtx.span), then a few extra walks that
// re-enter the dominant layers on their own.

// layerMetric fills one per-layer timing from the spans of (layer, name):
// their median in ms times factor.
func layerMetric(c *libCtx, rep *childReport, metric, layer, name string, factor float64) {
	if d := c.tr.durations(layer, name); len(d) > 0 {
		rep.PerLayer[metric] = median(d) * factor
		rep.Samples[metric] = len(d)
	}
}

// walk times one extra call as a span of its own under a replay parent.
func walk(c *libCtx, layer, name string, fn func() error) error {
	var err error
	c.tr.do(c.parent, c.op, layer, name, func() { err = fn() })
	if err != nil {
		return fmt.Errorf("%s.%s: %w", layer, name, err)
	}
	return nil
}

// traceScale derives scale_direct's per-layer metrics and walks RunSchedule
// as stream build / CollapseClasses / NewEvaluator + ExecScheduleAuto /
// Times — ROADMAP item 3's "split RunSchedule cost into build / verify /
// partition / sweep / assemble" (streams are correct by construction and
// have no verify step).
func traceScale(c *libCtx, rep *childReport) {
	c.op = len(rep.Names)
	c.parent = c.tr.begin(0, c.op, "harness", "replay")
	defer func() { c.tr.end(c.parent) }()
	fail := func(err error) { rep.WalkErrs = append(rep.WalkErrs, "traced walk: "+err.Error()) }

	for metric, span := range map[string][2]string{
		"platform.machine_build_ms.p1024":    {"platform", "machine_build.base"},
		"platform.machine_build_ms.p2048":    {"platform", "machine_build.big"},
		"platform.flat_machine_build_ms.p1m": {"platform", "flat_machine_build.collapsed_sync"},
		"sched.perrank_te_ms.p1024":          {"sched", "perrank_te"},
		"sched.perrank_te_ms.p2048":          {"sched", "perrank_te_big"},
		"sched.perrank_fault_ms.p1024":       {"sched", "perrank_fault"},
		"sched.collapsed_sync_ms.p1m":        {"sched", "collapsed_sync"},
		"sched.collapsed_te_ms.p256k":        {"sched", "collapsed_te"},
		"sched.program_ms.p1024":             {"sched", "program"},
		"bsp.sync_gate_ms.p2048":             {"bsp", "sync_gate"},
		"simnet.te_concurrent_ms.p256":       {"simnet", "te_concurrent"},
		"trace.spill_write_ms.p1024":         {"trace", "spill_write"},
		"trace.open_ms":                      {"trace", "open"},
		"trace.critical_path_ms":             {"trace", "critical_path"},
		"trace.rollup_ms":                    {"trace", "rollup"},
	} {
		layerMetric(c, rep, metric, span[0], span[1], 1)
	}
	layerMetric(c, rep, "barrier.stream_build_us", "barrier", "stream_build", 1e3)

	pl := rep.PerLayer
	if te := pl["sched.perrank_te_ms.p1024"]; te > 0 {
		if msgs, ok := c.vals["perrank_te/messages"].(int64); ok {
			pl["sched.perrank_msgs_per_s"] = float64(msgs) / (te / 1e3)
		}
		pl["fault.overhead_ratio.p1024"] = pl["sched.perrank_fault_ms.p1024"] / te
		// traced ÷ untraced, same operation: the spill-backed recording of the
		// per-rank total exchange against the plain one.
		pl["trace.record_overhead_ratio"] = pl["trace.spill_write_ms.p1024"] / te
	}
	if pts := c.tr.durations("sched", "sweep_point"); len(pts) > 1 {
		per := len(pts) / countOps(rep.Names, "sweep_bytes")
		var first, next []float64
		for i, d := range pts {
			if i%per == 0 {
				first = append(first, d)
			} else {
				next = append(next, d)
			}
		}
		pl["sched.sweep_first_point_ms.p1024"], rep.Samples["sched.sweep_first_point_ms.p1024"] = median(first), len(first)
		pl["sched.sweep_next_point_ms.p1024"], rep.Samples["sched.sweep_next_point_ms.p1024"] = median(next), len(next)
	}
	if st, ok := c.vals["sweep_stats"].(sched.SweepStats); ok {
		pl["sched.sweep_tapes_reused"] = float64(st.TapesReused)
		pl["sched.sweep_memo_mb"] = float64(st.MemoBytes) / (1 << 20)
	}
	if ev, ok := c.vals["trace/events"].(int64); ok {
		pl["trace.events.p1024"] = float64(ev)
		pl["trace.spill_mb.p1024"] = float64(c.vals["trace/spill_bytes"].(int64)) / (1 << 20)
	}

	// RunSchedule, walked stage by stage on the per-rank machine.
	z := scaleSizesFor(c.smoke)
	m, ok := c.vals[fmt.Sprint("xeon/", z.perRank)].(*cluster.Machine)
	if !ok {
		fail(fmt.Errorf("no base machine left by the list"))
		return
	}
	var s sched.Schedule
	var ev *isched.Evaluator
	steps := []struct {
		name string
		fn   func() error
	}{
		{"split.build", func() (err error) { s, err = collective.StreamTotalExchange(z.perRank, 64); return }},
		{"split.partition", func() error { isched.CollapseClasses(m, s); return nil }},
		{"split.sweep", func() error {
			ev = isched.NewEvaluator(m, sim.DefaultOptions().AckSends)
			ev.ExecScheduleAuto(s, isched.ScheduleTagBase, true)
			return nil
		}},
		{"split.assemble", func() error { ev.Times(nil); ev.Release(); return nil }},
	}
	split := 0.0
	for _, st := range steps {
		t0 := time.Now()
		if err := walk(c, "sched", st.name, st.fn); err != nil {
			fail(err)
			return
		}
		split += float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	layerMetric(c, rep, "sched.partition_ms.p1024", "sched", "split.partition", 1)
	if te := pl["sched.perrank_te_ms.p1024"]; te > 0 {
		// (build + partition + sweep + assemble) ÷ RunSchedule, reported
		// whatever its value: what the four stages leave unexplained is
		// RunSchedule's own bookkeeping.
		pl["sched.split_coverage"] = split / te
	}

	// Result assembly at the collapsed scale: per-rank times of 2^20 ranks.
	flat, err := cluster.FlatClusterMachine(z.collapsedSync)
	if err != nil {
		fail(err)
		return
	}
	ex, err := bsp.ExchangeSchedule(z.collapsedSync)
	if err != nil {
		fail(err)
		return
	}
	ev = isched.NewEvaluator(flat, true)
	ev.ExecScheduleAuto(ex, isched.ScheduleTagBase, true)
	walk(c, "sched", "assemble_collapsed", func() error { ev.Times(nil); return nil })
	ev.Release()
	layerMetric(c, rep, "sched.assemble_ms.p1m", "sched", "assemble_collapsed", 1)

	for i := 0; i < 20; i++ {
		walk(c, "fault", "compile", func() error {
			_, err := ifault.Compile(simbenchFaults(), m.Procs(), m.PairClass)
			return err
		})
	}
	layerMetric(c, rep, "fault.compile_us", "fault", "compile", 1e3)
}

func countOps(names []string, name string) int {
	n := 0
	for _, v := range names {
		if v == name {
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return n
}

// tracePaper derives paper_eval's per-layer metrics — each series is a span
// — and re-enters the dominant layers: bench.MeasurePairwise, stencil.RunBSP
// and RunMPI, the concurrent engine, and collective.Greedy.
func tracePaper(c *libCtx, rep *childReport) {
	pl := rep.PerLayer
	named := map[string]bool{}
	for _, s := range paperSeries {
		named[s] = true
	}
	other := 0.0
	for i, name := range rep.Names {
		if named[name] {
			pl["experiments.series_s."+name] = rep.LatMs[i] / 1e3
		} else {
			other += rep.LatMs[i] / 1e3
		}
	}
	pl["experiments.other_s"] = other
	render := 0.0
	for _, d := range c.tr.durations("experiments", "render") {
		render += d
	}
	pl["experiments.render_ms"] = render

	c.op = len(rep.Names)
	c.parent = c.tr.begin(0, c.op, "harness", "replay")
	defer func() { c.tr.end(c.parent) }()
	fail := func(err error) {
		if err != nil {
			rep.WalkErrs = append(rep.WalkErrs, "traced walk: "+err.Error())
		}
	}

	o := paperOptions(1, c.smoke)
	bg := context.Background()
	xeon := cluster.Xeon8x2x4()
	concurrent := sim.DefaultOptions()
	concurrent.Engine = sim.EngineConcurrent

	m16, err := xeon.Machine(min(16, o.MaxProcsXeon))
	if err != nil {
		fail(err)
		return
	}
	cfg := stencil.Config{N: o.StencilLargeN, Iterations: o.StencilIterations, C: 0.25, Synthetic: true}
	fail(walk(c, "stencil", "run_bsp", func() error { _, err := stencil.RunBSP(m16, cfg, 1); return err }))
	fail(walk(c, "stencil", "run_mpi", func() error { _, err := stencil.RunMPI(m16, cfg); return err }))
	fail(walk(c, "stencil", "predict", func() error {
		params, err := stencil.GroundTruthParams(xeon, m16.Procs())
		if err != nil {
			return err
		}
		_, err = stencil.PredictIteration(xeon, params, m16.Procs(), cfg, 1)
		return err
	}))
	fail(walk(c, "bench", "bspbench", func() error { _, err := bench.BSPBench(m16, bench.DefaultBSPBenchConfig()); return err }))
	fail(walk(c, "bench", "kernel_rate", func() error {
		_, err := bench.KernelRate(m16, 0, kernels.BLAS1()[0], 4096, bench.DefaultKernelBenchConfig())
		return err
	}))

	opteron, err := cluster.Opteron12x2x6().Machine(o.MaxProcsOpteron)
	if err != nil {
		fail(err)
		return
	}
	pw := bench.DefaultPairwiseOptions()
	pw.Samples = 2
	fail(walk(c, "bench", "pairwise", func() error { _, err := bench.MeasurePairwise(opteron, pw); return err }))

	m64, err := xeon.Machine(o.MaxProcsXeon)
	if err != nil {
		fail(err)
		return
	}
	params, err := bench.ModelParams(m64, 2)
	if err != nil {
		fail(err)
		return
	}
	fail(walk(c, "adapt", "greedy", func() error { _, err := collective.Greedy(params, collective.DefaultCostOptions()); return err }))

	big, err := cluster.XeonClusterMachine(4 * o.MaxProcsXeon)
	if err != nil {
		fail(err)
		return
	}
	var ring *sim.Result
	fail(walk(c, "simnet", "send_recv", func() (err error) {
		ring, err = sim.Run(bg, big, experiments.SendRecvRingProgram, concurrent)
		return err
	}))
	fail(walk(c, "bsp", "sync_concurrent", func() error {
		_, err := bsp.RunContext(bg, big, bsp.RunConfig{Options: &concurrent}, experiments.SyncExchangeProgram)
		return err
	}))

	for metric, span := range map[string][2]string{
		"stencil.run_bsp_ms.n1536.p16": {"stencil", "run_bsp"},
		"stencil.run_mpi_ms.n1536.p16": {"stencil", "run_mpi"},
		"stencil.predict_ms":           {"stencil", "predict"},
		"bench.bspbench_ms.p16":        {"bench", "bspbench"},
		"bench.kernel_rate_ms":         {"bench", "kernel_rate"},
		"bench.pairwise_ms.p144":       {"bench", "pairwise"},
		"adapt.greedy_ms.p64":          {"adapt", "greedy"},
		"simnet.send_recv_ms.p256":     {"simnet", "send_recv"},
		"bsp.sync_concurrent_ms.p256":  {"bsp", "sync_concurrent"},
	} {
		layerMetric(c, rep, metric, span[0], span[1], 1)
	}
	if ms := pl["simnet.send_recv_ms.p256"]; ms > 0 && ring != nil {
		pl["simnet.msgs_per_s"] = float64(ring.Messages) / (ms / 1e3)
	}
}
