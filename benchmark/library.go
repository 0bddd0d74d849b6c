package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hbsp/bsp"
	"hbsp/cluster"
	"hbsp/collective"
	"hbsp/experiments"
	"hbsp/fault"
	"hbsp/sched"
	"hbsp/server"
	"hbsp/sim"
	"hbsp/trace"
)

// Library workloads run in a child of the harness, so peak_rss_mb and cpu_s
// belong to one workload. The child prints one childReport on stdout.

// libOp is one operation of a library workload: a direct call (or a short
// sequence of calls) into the library, returning what the digest folds — a
// rendered table, or MakeSpan/Messages/Bytes.
type libOp struct {
	name string
	run  func(c *libCtx) (string, error)
}

// libCtx is what operations share: the tracer (nil when untraced), the
// current operation's span, a scratch directory, and values one operation
// leaves for later ones (a library user builds a machine once, too).
type libCtx struct {
	tr     *tracer
	op     int // index of the running operation
	parent int // its span
	tmp    string
	smoke  bool
	vals   map[string]any
}

// span times fn as a child span of the running operation.
func (c *libCtx) span(layer, name string, fn func()) {
	c.tr.do(c.parent, c.op, layer, name, fn)
}

// childReport is what a library child hands back.
type childReport struct {
	SetupS    float64   `json:"setup_s"`
	WallS     float64   `json:"wall_s"` // the whole list
	CPUS      float64   `json:"cpu_s"`  // user+system over the whole list
	PeakRSSMB float64   `json:"peak_rss_mb"`
	Passes    int       `json:"passes"` // passes over the list; operations divide evenly among them
	Names     []string  `json:"names"`
	LatMs     []float64 `json:"lat_ms"`
	// For the parent's speed log: when the list began and each operation
	// began and ended (unix nanoseconds), and the CPU time from the end of
	// the operation before (or the list's beginning) to each operation's end.
	StartNs   int64              `json:"start_ns"`
	EndNs     int64              `json:"end_ns"`
	OpStartNs []int64            `json:"op_start_ns"`
	OpEndNs   []int64            `json:"op_end_ns"`
	OpCPUS    []float64          `json:"op_cpu_s"`
	Lines     []int              `json:"lines"` // output lines per operation
	Hashes    []string           `json:"hashes"`
	Errors    []string           `json:"errors"`
	WalkErrs  []string           `json:"walk_errors,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Samples   map[string]int     `json:"samples,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

// libraryOps returns one pass of a library workload's operation list and
// how many passes a run makes over it. paper_eval is one evaluation, as its
// reader runs it, and scales through its repetition count; scale_direct makes
// two passes per 10 seconds.
func libraryOps(workload string, scale float64, smoke bool) (pass []libOp, passes int) {
	if workload == "paper_eval" {
		return paperOps(scale, smoke), 1
	}
	return scaleOps(smoke), int(math.Max(1, math.Round(2*scale)))
}

// childMain is the body of a library child: set up, run the list, report.
func childMain(workload string, seed int64, seconds float64, smoke, traced bool) int {
	spawned := time.Now()
	if ns, err := strconv.ParseInt(os.Getenv("BENCH_SPAWNED_NS"), 10, 64); err == nil {
		spawned = time.Unix(0, ns)
	}
	scale := seconds / runSeconds
	if smoke {
		scale /= 100
	}
	tmp := os.Getenv("BENCH_TMP")
	if tmp == "" {
		tmp = os.TempDir()
	}
	c := &libCtx{tmp: tmp, smoke: smoke, vals: map[string]any{}}
	if traced {
		c.tr = newTracer()
	}
	pass, passes := libraryOps(workload, scale, smoke)
	var ops []libOp
	for p := 0; p < passes; p++ {
		ops = append(ops, pass...)
	}
	rep := childReport{SetupS: time.Since(spawned).Seconds(), Passes: passes}
	if os.Getenv("BENCH_SETUP_ONLY") != "" {
		json.NewEncoder(os.Stdout).Encode(rep)
		return 0
	}

	start, cpu0 := time.Now(), selfCPU()
	rep.StartNs = start.UnixNano()
	cpuPrev := cpu0
	for i, op := range ops {
		c.op = i
		c.parent = c.tr.begin(0, i, "op", op.name)
		// Collect between operations, so that peak_rss_mb reads the largest
		// operation and not where the collector happened to be. The
		// collections count in wall_s and cpu_s, not in any latency.
		runtime.GC()
		t0 := time.Now()
		out, err := op.run(c)
		t1 := time.Now()
		cpu := selfCPU()
		rep.LatMs = append(rep.LatMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
		rep.OpStartNs, rep.OpEndNs = append(rep.OpStartNs, t0.UnixNano()), append(rep.OpEndNs, t1.UnixNano())
		rep.OpCPUS, cpuPrev = append(rep.OpCPUS, cpu-cpuPrev), cpu
		c.tr.end(c.parent)
		rep.Names = append(rep.Names, op.name)
		rep.Lines = append(rep.Lines, len(strings.Split(strings.TrimRight(out, "\n"), "\n")))
		sum := sha256.Sum256([]byte(out))
		rep.Hashes = append(rep.Hashes, hex.EncodeToString(sum[:]))
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("op %d (%s): %v", i, op.name, err))
		} else {
			rep.Errors = append(rep.Errors, "")
		}
	}
	rep.WallS, rep.CPUS, rep.EndNs = time.Since(start).Seconds(), selfCPU()-cpu0, time.Now().UnixNano()
	if traced {
		rep.PerLayer, rep.Samples = map[string]float64{}, map[string]int{}
		if workload == "paper_eval" {
			tracePaper(c, &rep)
		} else {
			traceScale(c, &rep)
		}
		rep.Spans = c.tr.spans
	}
	if st, err := readProcStats(os.Getpid()); err == nil {
		rep.PeakRSSMB = st.peakRSSMB
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		return 1
	}
	return 0
}

// libStretch is how long a library child runs between two probes.
const libStretch = 250 * time.Millisecond

// childCmd prepares one library child; its report arrives on stdout.
func (h *harness) childCmd(workload string, traced bool, extraEnv ...string) (*exec.Cmd, *bytes.Buffer, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	args := []string{"-child", workload, "-seed", fmt.Sprint(h.seed), "-seconds", fmt.Sprint(h.seconds)}
	if h.smoke {
		args = append(args, "-smoke")
	}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout := new(bytes.Buffer)
	cmd.Stdout = stdout
	cmd.Env = append(os.Environ(), extraEnv...)
	cmd.Env = append(cmd.Env, "BENCH_TMP="+h.env.tmp, fmt.Sprintf("BENCH_SPAWNED_NS=%d", time.Now().UnixNano()))
	return cmd, stdout, nil
}

func decodeReport(stdout *bytes.Buffer, waitErr error) (*childReport, error) {
	if waitErr != nil {
		return nil, fmt.Errorf("library child: %w", waitErr)
	}
	var rep childReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("library child report: %w", err)
	}
	return &rep, nil
}

// spawnChild runs one library child to its end and decodes its report. It
// runs on the main goroutine (see startChild).
func (h *harness) spawnChild(workload string, traced bool, extraEnv ...string) (*childReport, error) {
	cmd, stdout, err := h.childCmd(workload, traced, extraEnv...)
	if err != nil {
		return nil, err
	}
	if err := startChild(cmd); err != nil {
		return nil, err
	}
	err = cmd.Wait()
	untrack(cmd)
	return decodeReport(stdout, err)
}

// stopped waits until a process that was sent SIGSTOP has stopped (or is
// gone), which takes some microseconds.
func stopped(pid int) {
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return
		}
		if state := bytes.TrimSpace(stat[bytes.LastIndexByte(stat, ')')+1:]); len(state) == 0 || state[0] == 'T' || state[0] == 'Z' {
			return
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// measureChild runs the library child that does the whole list, in stretches
// of libStretch: between two of them the child is stopped (SIGSTOP) while
// the probe runs, so the log says how fast the machine was during every part
// of every operation. It runs on the main goroutine (see startChild).
func (h *harness) measureChild(workload string) (*childReport, speedLog, error) {
	cmd, stdout, err := h.childCmd(workload, false)
	if err != nil {
		return nil, nil, err
	}
	before := probe()
	from := time.Now().UnixNano()
	if err := startChild(cmd); err != nil {
		return nil, nil, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var log speedLog
	for exited := false; !exited; {
		select {
		case err = <-done:
			exited = true
		case <-time.After(libStretch):
			cmd.Process.Signal(syscall.SIGSTOP)
			stopped(cmd.Process.Pid)
		}
		to := time.Now().UnixNano()
		after := probe()
		log = append(log, stretch{from, to, speedOf(before, after)})
		before, from = after, time.Now().UnixNano()
		cmd.Process.Signal(syscall.SIGCONT) // reports that the process is done once it has exited
	}
	untrack(cmd)
	rep, err := decodeReport(stdout, err)
	return rep, log, err
}

// runLibrary measures one library workload: setupReps-1 children that only
// set up (process start to the point where the first operation would begin)
// and exit, then one child that sets up and runs the whole list — a cold
// process, as a user of the library or of cmd/experiments would start it —
// then, on a traced run, one more child that records spans.
func (h *harness) runLibrary(res *runResult) error {
	var setups []float64
	for i := 1; i < setupReps; i++ {
		before := probe()
		rep, err := h.spawnChild(res.Workload, false, "BENCH_SETUP_ONLY=1")
		if err != nil {
			return err
		}
		setups = append(setups, rep.SetupS*speedOf(before, probe()))
	}
	rep, log, err := h.measureChild(res.Workload)
	if err != nil {
		return err
	}
	setup, _ := log.seconds(log[0].from, rep.StartNs)
	setups = append(setups, setup)
	nops := len(rep.Hashes)

	hashes := make([][sha256.Size]byte, nops)
	lines := 0
	for i, hx := range rep.Hashes {
		res.Ops[rep.Names[i]]++
		if raw, err := hex.DecodeString(hx); err != nil || copy(hashes[i][:], raw) != sha256.Size {
			return fmt.Errorf("child reported a malformed hash for operation %d", i)
		}
		if rep.Errors[i] != "" {
			res.fail("%s", rep.Errors[i])
		} else {
			lines += rep.Lines[i]
		}
	}
	res.Attempted = nops
	res.Digest = foldDigest(hashes)

	// The latency of a library workload is that of one pass over its list:
	// its two dozen calls are unlike each other — a tenth of a millisecond to
	// seconds — so a quantile counted over them reads whichever call lands in
	// the middle and moves by a third when two calls swap places. The calls
	// one by one are per-layer metrics. A pass's output is whole when its
	// last call returns, so its first line arrives with its last.
	if rep.Passes < 1 || nops%rep.Passes != 0 {
		return fmt.Errorf("child ran %d operations in %d passes", nops, rep.Passes)
	}
	passMs := make([]float64, rep.Passes)
	var cpu float64
	prevEnd := rep.StartNs
	for i := range rep.OpEndNs {
		ref, _ := log.seconds(rep.OpStartNs[i], rep.OpEndNs[i])
		passMs[i/(nops/rep.Passes)] += ref * 1e3
		// The operation's CPU time (and that of the collection before it)
		// counts at the speed of the time it was spent in.
		if ref, raw := log.seconds(prevEnd, rep.OpEndNs[i]); raw > 0 {
			cpu += rep.OpCPUS[i] * ref / raw
		}
		prevEnd = rep.OpEndNs[i]
	}
	wall, rawWall := log.seconds(rep.StartNs, rep.EndNs)
	e2e := res.EndToEnd
	res.timing(e2e, "setup_s", median(setups), len(setups))
	res.timing(e2e, "req_per_s", float64(nops-res.Failed)/wall, nops)
	res.timing(e2e, "points_per_s", float64(lines)/wall, lines)
	res.timing(e2e, "lat_p50_ms", quantile(passMs, 0.50), len(passMs))
	res.timing(e2e, "lat_p95_ms", quantile(passMs, 0.95), len(passMs))
	res.timing(e2e, "first_line_p50_ms", quantile(passMs, 0.50), len(passMs))
	e2e["wall_s"] = wall
	e2e["cpu_s"] = cpu
	e2e["peak_rss_mb"] = rep.PeakRSSMB
	res.PerLayer["harness.speed"] = wall / rawWall
	res.PerLayer["harness.raw_wall_s"] = rawWall
	if !h.traced {
		return nil
	}

	traced, err := h.spawnChild(res.Workload, true)
	if err != nil {
		return err
	}
	for i, e := range traced.Errors {
		if e != "" {
			res.fail("traced %s", e)
		} else if traced.Hashes[i] != rep.Hashes[i] {
			res.fail("traced op %d (%s) differs from the untraced run", i, traced.Names[i])
		}
	}
	for _, e := range traced.WalkErrs {
		res.fail("%s", e)
	}
	res.Attempted += nops
	for k, v := range traced.PerLayer {
		res.PerLayer[k] = v
	}
	for k, n := range traced.Samples {
		res.Samples[k] = n
	}
	// Tracing overhead: the same list with spans on against spans off.
	res.PerLayer["harness.trace_overhead_ratio"] = traced.WallS / rawWall
	fmt.Printf("  untraced wall %.3fs, traced wall %.3fs (both as run, not at reference speed): tracing overhead %+.3fs\n",
		rawWall, traced.WallS, traced.WallS-rawWall)
	return writeSpans(h.env, res.Workload, traced.Spans)
}

// writeSpans stores a traced run's spans in benchmark/results.
func writeSpans(e *env, workload string, spans []span) error {
	dir := filepath.Join(e.root, "benchmark", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, workload+".spans.json")
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  %d spans written to %s\n", len(spans), path)
	return nil
}

// ---- paper_eval -----------------------------------------------------------

// paperOptions are experiments.Full() with the repetition count as the
// operation count: 4 per 10 seconds, so -seconds 40 is the complete
// evaluation (Reps 16). The series and their sweeps — the mix — are Full's.
func paperOptions(scale float64, smoke bool) experiments.Options {
	if smoke {
		o := experiments.Quick()
		o.Reps, o.MaxProcsXeon, o.MaxProcsOpteron = 1, 16, 24
		o.StencilLargeN, o.StencilSmallN, o.StencilIterations = 96, 48, 1
		o.CollapseProcs = []int{256, 4096}
		return o
	}
	o := experiments.Full()
	o.Reps = int(math.Max(1, math.Round(4*scale)))
	return o
}

// paperOps is the series of experiments.RunAll, called one by one in thesis
// order with each table rendered to a buffer. ScaleSweepSeries is left out:
// on the seed commit its shared *sched.Circulant panics inside a worker
// goroutine (ROADMAP item 1) and would take the harness down with it.
func paperOps(scale float64, smoke bool) []libOp {
	o := paperOptions(scale, smoke)
	xeon, opteron := cluster.Xeon8x2x4(), cluster.Opteron12x2x6()
	render := func(c *libCtx, t *experiments.Table) string {
		var s string
		c.span("experiments", "render", func() { s = t.String() })
		return s
	}
	rows := func(c *libCtx, title string, cols []string, n int, row func(i int) []string) string {
		t := &experiments.Table{Title: title, Columns: cols}
		for i := 0; i < n; i++ {
			t.AddRow(row(i)...)
		}
		return render(c, t)
	}
	sec := func(v float64) string { return fmt.Sprintf("%.3e", v) }
	pct := func(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
	itoa := func(v int) string { return fmt.Sprint(v) }

	barrierOps := func(suffix string, prof *cluster.Profile, max int) []libOp {
		return []libOp{
			{"fig5_6_" + suffix, func(c *libCtx) (string, error) {
				pts, err := experiments.Fig5_6Series(prof, max, o)
				if err != nil {
					return "", err
				}
				return render(c, experiments.BarrierTable("barriers "+suffix, pts)), nil
			}},
			{"fig6_3_" + suffix, func(c *libCtx) (string, error) {
				pts, err := experiments.Fig6_3Series(prof, max, o)
				if err != nil {
					return "", err
				}
				return rows(c, "BSP sync "+suffix, []string{"P", "measured [s]", "estimate [s]", "rel err"}, len(pts), func(i int) []string {
					return []string{itoa(pts[i].Procs), sec(pts[i].Measured), sec(pts[i].Predicted), pct(pts[i].RelError)}
				}), nil
			}},
		}
	}
	collectiveOp := func(suffix string, prof *cluster.Profile, max int) libOp {
		return libOp{"collective_" + suffix, func(c *libCtx) (string, error) {
			pts, err := experiments.CollectiveSeries(prof, max, o)
			if err != nil {
				return "", err
			}
			return render(c, experiments.CollectiveTable("collectives "+suffix, pts)), nil
		}}
	}
	clusteringOp := func(name string, prof *cluster.Profile, procs int) libOp {
		return libOp{name, func(c *libCtx) (string, error) {
			r, err := experiments.Table7_1(prof, procs)
			if err != nil {
				return "", err
			}
			return rows(c, name, []string{"processes", "subsets", "sizes", "threshold [s]"}, 1, func(int) []string {
				return []string{itoa(r.Procs), itoa(r.Subsets), fmt.Sprint(r.Sizes), sec(r.Threshold)}
			}), nil
		}}
	}

	ops := []libOp{
		{"table3_1", func(c *libCtx) (string, error) {
			r, err := experiments.Table3_1(xeon, o)
			if err != nil {
				return "", err
			}
			c.vals["table3_1"] = r
			return render(c, experiments.Table3_1Table(r)), nil
		}},
		{"fig3_2", func(c *libCtx) (string, error) {
			pts, err := experiments.Fig3_2(xeon, c.vals["table3_1"].([]experiments.BSPBenchRow), 1<<22, o)
			if err != nil {
				return "", err
			}
			return rows(c, "fig 3.2", []string{"P", "measured [s]", "estimate [s]"}, len(pts), func(i int) []string {
				return []string{itoa(pts[i].P), sec(pts[i].Measured), sec(pts[i].Estimated)}
			}), nil
		}},
		{"fig4_2", func(c *libCtx) (string, error) {
			pts, err := experiments.Fig4_2(xeon)
			if err != nil {
				return "", err
			}
			return rows(c, "fig 4.2", []string{"vector size", "Mflop/s"}, len(pts), func(i int) []string {
				return []string{itoa(pts[i].VectorSize), fmt.Sprintf("%.1f", pts[i].Mflops)}
			}), nil
		}},
		{"fig4_3", func(c *libCtx) (string, error) {
			pts, err := experiments.Fig4_3(xeon, o)
			if err != nil {
				return "", err
			}
			return rows(c, "figs 4.3/4.4", []string{"kernel", "applications", "predicted [s]", "measured [s]", "rel err"}, len(pts), func(i int) []string {
				p := pts[i]
				return []string{p.Kernel, itoa(p.Applications), sec(p.Predicted), sec(p.Measured), pct(p.RelativeError)}
			}), nil
		}},
		{"fig4_5", func(c *libCtx) (string, error) {
			pts, err := experiments.Fig4_5(cluster.AthlonX2(), 512*1024)
			if err != nil {
				return "", err
			}
			return rows(c, "figs 4.5/4.6", []string{"kernel", "bytes", "time [s]"}, len(pts), func(i int) []string {
				return []string{pts[i].Kernel, fmt.Sprintf("%.0f", pts[i].FootprintBytes), sec(pts[i].Seconds)}
			}), nil
		}},
	}
	ops = append(ops, barrierOps("xeon", xeon, o.MaxProcsXeon)...)
	ops = append(ops, barrierOps("opteron", opteron, o.MaxProcsOpteron)...)
	ops = append(ops,
		libOp{"trace_breakdown", func(c *libCtx) (string, error) {
			pts, err := experiments.TraceBreakdownSeries(xeon, experiments.ConsecutiveProcs(o.MaxProcsXeon-7, o.MaxProcsXeon), o)
			if err != nil {
				return "", err
			}
			return render(c, experiments.TraceBreakdownTable("trace breakdown", pts)), nil
		}},
		clusteringOp("table7_1", xeon, min(60, o.MaxProcsXeon)),
		clusteringOp("table7_2", cluster.Opteron10x2x6(), min(115, 5*o.MaxProcsOpteron/6)),
		libOp{"fig7_4", func(c *libCtx) (string, error) {
			pts, err := experiments.Fig7_4Series(xeon, o.MaxProcsXeon, o)
			if err != nil {
				return "", err
			}
			return rows(c, "figs 7.4-7.7", []string{"P", "best", "adapted [s]", "dissemination [s]", "tree [s]", "linear [s]"}, len(pts), func(i int) []string {
				h := pts[i]
				return []string{itoa(h.Procs), h.BestName, sec(h.Adapted), sec(h.Dissemination), sec(h.Tree), sec(h.Linear)}
			}), nil
		}},
		collectiveOp("xeon", xeon, o.MaxProcsXeon),
		collectiveOp("opteron", opteron, o.MaxProcsOpteron),
		libOp{"collapse_scaling", func(c *libCtx) (string, error) {
			pts, err := experiments.CollapseScalingSeries(o.CollapseProcs)
			if err != nil {
				return "", err
			}
			return render(c, experiments.CollapseScalingTable("collapse scaling", pts)), nil
		}},
		libOp{"bytes_sweep", func(c *libCtx) (string, error) {
			pts, err := experiments.BytesSweepSeries(xeon, o.MaxProcsXeon, []int{16, 64, 256, 1024})
			if err != nil {
				return "", err
			}
			return render(c, experiments.SweepSeriesTable("bytes sweep", pts)), nil
		}},
		libOp{"straggler", func(c *libCtx) (string, error) {
			pts, err := experiments.StragglerSeries(16, 8, []float64{1, 1.5, 2, 4, 8})
			if err != nil {
				return "", err
			}
			return render(c, experiments.StragglerTable("straggler", pts)), nil
		}},
		libOp{"recovery", func(c *libCtx) (string, error) {
			pts, err := experiments.RecoverySeries(16, 8, []float64{0, 0.7, 0.4, 0.15, 0.06})
			if err != nil {
				return "", err
			}
			return render(c, experiments.RecoveryTable("recovery", pts)), nil
		}},
		libOp{"adapted_sync", func(c *libCtx) (string, error) {
			pts, err := experiments.AdaptedSyncSeries(xeon, o.MaxProcsXeon, o)
			if err != nil {
				return "", err
			}
			return render(c, experiments.AdaptedSyncTable("adapted sync", pts)), nil
		}},
		libOp{"table8_1", func(c *libCtx) (string, error) {
			return render(c, experiments.Table8_1Table(experiments.Table8_1(o))), nil
		}},
		libOp{"table8_2", func(c *libCtx) (string, error) {
			r, err := experiments.Table8_2(xeon, o)
			if err != nil {
				return "", err
			}
			return rows(c, "table 8.2", []string{"P", "MPI [s]", "MPI+R [s]"}, len(r), func(i int) []string {
				return []string{itoa(r[i].Procs), sec(r[i].MPI), sec(r[i].MPIR)}
			}), nil
		}},
		libOp{"fig8_4", func(c *libCtx) (string, error) {
			pts, err := experiments.Fig8_4Series(xeon, o.StencilLargeN, nil, o)
			if err != nil {
				return "", err
			}
			return rows(c, "figs 8.4-8.7", []string{"implementation", "P", "time/iteration [s]"}, len(pts), func(i int) []string {
				return []string{pts[i].Implementation, itoa(pts[i].Procs), sec(pts[i].PerIteration)}
			}), nil
		}},
		libOp{"fig8_10", func(c *libCtx) (string, error) {
			pts, err := experiments.Fig8_10Series(xeon, o)
			if err != nil {
				return "", err
			}
			return rows(c, "figs 8.10-8.15", []string{"problem", "variant", "P", "predicted [s]", "measured [s]", "rel err"}, len(pts), func(i int) []string {
				p := pts[i]
				return []string{p.Problem, p.Variant, itoa(p.Procs), sec(p.Predicted), sec(p.Measured), pct(p.RelError)}
			}), nil
		}},
		libOp{"fig8_18", func(c *libCtx) (string, error) {
			pts, err := experiments.Fig8_18Series(xeon, min(16, o.MaxProcsXeon), o)
			if err != nil {
				return "", err
			}
			return rows(c, "fig 8.18", []string{"fraction", "predicted [s]", "measured [s]"}, len(pts), func(i int) []string {
				return []string{fmt.Sprintf("%.2f", pts[i].Fraction), sec(pts[i].Predicted), sec(pts[i].Measured)}
			}), nil
		}},
	)
	return ops
}

// ---- scale_direct ---------------------------------------------------------

// scaleSizes are the rank counts of the scale_direct list.
type scaleSizes struct {
	perRank, perRankBig, collapsedSync, collapsedTE, concurrent, sweepPoints int
}

func scaleSizesFor(smoke bool) scaleSizes {
	if smoke {
		return scaleSizes{perRank: 64, perRankBig: 128, collapsedSync: 1 << 12, collapsedTE: 1 << 10, concurrent: 16, sweepPoints: 4}
	}
	return scaleSizes{perRank: 1024, perRankBig: 2048, collapsedSync: 1 << 20, collapsedTE: 1 << 18, concurrent: 256, sweepPoints: 16}
}

// simbenchFaults is cmd/simbench's fault plan: one persistent straggler plus
// a windowed wildcard link degradation.
func simbenchFaults() *fault.Plan {
	return &fault.Plan{
		Slowdowns: []fault.Slowdown{{Rank: 0, Factor: 1.5}},
		Links:     []fault.LinkRule{{Src: -1, Dst: -1, Class: -1, LatencyFactor: 2, BetaFactor: 2, Start: 0, End: 1e-3}},
	}
}

// programOf compiles an uploaded op-stream into a sim.Program, the way the
// server does for the program workload.
func programOf(ranks [][]server.OpSpec) *sim.Program {
	pr := sim.NewProgram(len(ranks))
	for rank, ops := range ranks {
		b := pr.Rank(rank)
		for _, op := range ops {
			switch op.Op {
			case "compute":
				b.Compute(op.Seconds)
			case "isend":
				b.Isend(op.To, op.Tag, op.Bytes)
			case "irecv":
				b.Irecv(op.From, op.Tag)
			case "wait":
				b.Wait(sim.Req(op.Req))
			}
		}
	}
	return pr
}

func resultLine(res *sim.Result) string {
	return fmt.Sprintf("makespan=%x messages=%d bytes=%d", math.Float64bits(res.MakeSpan), res.Messages, res.Bytes)
}

// sweepRunOptions mirror RunSchedule's conventions, so every sweep point is
// bit-identical to an independent RunSchedule call.
func sweepRunOptions() sched.SweepOptions {
	o := sim.DefaultOptions()
	return sched.SweepOptions{AckSends: o.AckSends, SymmetryCollapse: o.SymmetryCollapse, ComputeEmpty: true, Deadline: o.Deadline}
}

// scaleOps is one pass of the library user scaling out: a fixed list of
// direct calls. About half of it is the per-rank stage sweep, with the
// collapsed path and the trace pipeline beside it.
func scaleOps(smoke bool) []libOp {
	z := scaleSizesFor(smoke)
	bg := context.Background()
	// Spans and operations are named by role, so the smoke list (smaller
	// rank counts) fills the same names.
	role := map[int]string{z.perRank: "base", z.perRankBig: "big", z.concurrent: "concurrent"}
	machine := func(c *libCtx, p int) (*cluster.Machine, error) {
		key := fmt.Sprint("xeon/", p)
		if m, ok := c.vals[key]; ok {
			return m.(*cluster.Machine), nil
		}
		var m *cluster.Machine
		var err error
		c.span("platform", "machine_build."+role[p], func() { m, err = cluster.XeonClusterMachine(p) })
		if err == nil {
			c.vals[key] = m
		}
		return m, err
	}
	build := func(p int) libOp {
		return libOp{"machine_build." + role[p], func(c *libCtx) (string, error) {
			delete(c.vals, fmt.Sprint("xeon/", p)) // every round builds afresh
			m, err := machine(c, p)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("procs=%d l01=%x", m.Procs(), math.Float64bits(m.Latency(0, m.Procs()-1))), nil
		}}
	}
	perRankTE := func(name string, p int, plan *fault.Plan) libOp {
		return libOp{name, func(c *libCtx) (string, error) {
			m, err := machine(c, p)
			if err != nil {
				return "", err
			}
			var s sched.Schedule
			c.span("barrier", "stream_build", func() { s, err = collective.StreamTotalExchange(p, 64) })
			if err != nil {
				return "", err
			}
			o := sim.DefaultOptions()
			o.Faults = plan
			var res *sim.Result
			c.span("sched", name, func() { res, err = sched.RunSchedule(bg, m, s, 1, o) })
			if err != nil {
				return "", err
			}
			c.vals[name+"/messages"] = res.Messages
			return resultLine(res), nil
		}}
	}
	collapsed := func(name string, p int, mk func(p int) (sched.Schedule, error)) libOp {
		return libOp{name, func(c *libCtx) (string, error) {
			var m *cluster.Machine
			var err error
			c.span("platform", "flat_machine_build."+name, func() { m, err = cluster.FlatClusterMachine(p) })
			if err != nil {
				return "", err
			}
			s, err := mk(p)
			if err != nil {
				return "", err
			}
			var res *sim.Result
			c.span("sched", name, func() { res, err = sched.RunSchedule(bg, m, s, 1, sim.DefaultOptions()) })
			if err != nil {
				return "", err
			}
			if !res.Collapse.Applied {
				return "", fmt.Errorf("collapse not applied: %s", res.Collapse.Reason)
			}
			return resultLine(res), nil
		}}
	}

	return []libOp{
		build(z.perRank),
		build(z.perRankBig),
		perRankTE("perrank_te", z.perRank, nil),
		perRankTE("perrank_fault", z.perRank, simbenchFaults()),
		perRankTE("perrank_te_big", z.perRankBig, nil),
		collapsed("collapsed_sync", z.collapsedSync, bsp.ExchangeSchedule),
		collapsed("collapsed_te", z.collapsedTE, func(p int) (sched.Schedule, error) { return collective.StreamTotalExchange(p, 64) }),
		{"sync_gate", func(c *libCtx) (string, error) {
			m, err := machine(c, z.perRankBig)
			if err != nil {
				return "", err
			}
			var res *sim.Result
			c.span("bsp", "sync_gate", func() { res, err = bsp.RunContext(bg, m, bsp.RunConfig{}, experiments.SyncExchangeProgram) })
			if err != nil {
				return "", err
			}
			return resultLine(res), nil
		}},
		{"sweep_bytes", func(c *libCtx) (string, error) {
			m, err := machine(c, z.perRank)
			if err != nil {
				return "", err
			}
			sw, err := sched.NewSweepEvaluator(m, sweepRunOptions())
			if err != nil {
				return "", err
			}
			defer sw.Release()
			var out bytes.Buffer
			for i := 0; i < z.sweepPoints; i++ {
				s, err := collective.StreamTotalExchange(z.perRank, 16*(i+1))
				if err != nil {
					return "", err
				}
				var res *sim.Result
				c.span("sched", "sweep_point", func() { res, err = sw.Run(bg, m, s, 1) })
				if err != nil {
					return "", err
				}
				fmt.Fprintln(&out, resultLine(res))
			}
			c.vals["sweep_stats"] = sw.Stats()
			return out.String(), nil
		}},
		{"program_ring", func(c *libCtx) (string, error) {
			m, err := machine(c, z.perRank)
			if err != nil {
				return "", err
			}
			pr := programOf(ringProgram(z.perRank, 4096))
			var res *sim.Result
			c.span("sched", "program", func() { res, err = sched.RunProgram(bg, m, pr, sim.DefaultOptions()) })
			if err != nil {
				return "", err
			}
			return resultLine(res), nil
		}},
		{"traced_te", func(c *libCtx) (string, error) {
			m, err := machine(c, z.perRank)
			if err != nil {
				return "", err
			}
			return tracedTotalExchange(c, m)
		}},
		{"te_concurrent", func(c *libCtx) (string, error) {
			m, err := machine(c, z.concurrent)
			if err != nil {
				return "", err
			}
			pat, err := collective.TotalExchange(z.concurrent, 64)
			if err != nil {
				return "", err
			}
			o := sim.DefaultOptions()
			o.Engine = sim.EngineConcurrent
			var meas *collective.Measurement
			c.span("simnet", "te_concurrent", func() { meas, err = collective.MeasureWith(m, pat, 1, o) })
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("worst=%x", math.Float64bits(meas.MeanWorst)), nil
		}},
	}
}

// tracedTotalExchange records a per-rank total exchange into a spill file,
// reopens it and runs the streaming analyses. The critical path must end at
// the makespan bit for bit.
func tracedTotalExchange(c *libCtx, m *cluster.Machine) (string, error) {
	p := m.Procs()
	s, err := collective.StreamTotalExchange(p, 64)
	if err != nil {
		return "", err
	}
	f, err := os.CreateTemp(c.tmp, "te-*.hbsptrc")
	if err != nil {
		return "", err
	}
	defer os.Remove(f.Name())
	defer f.Close()

	rec := trace.NewRecorder()
	rec.SpillTo(f, trace.SpillOptions{})
	o := sim.DefaultOptions()
	o.Recorder = rec
	var res *sim.Result
	c.span("trace", "spill_write", func() {
		if res, err = sched.RunSchedule(context.Background(), m, s, 1, o); err == nil {
			err = rec.SpillErr()
		}
	})
	if err != nil {
		return "", err
	}
	_, events, spillBytes := rec.SpillStats()
	c.vals["trace/events"], c.vals["trace/spill_bytes"] = events, spillBytes

	var sp *trace.Spill
	c.span("trace", "open", func() { sp, err = trace.OpenSpillFile(f.Name()) })
	if err != nil {
		return "", err
	}
	defer sp.Close()
	var cp *trace.CriticalPath
	c.span("trace", "critical_path", func() { cp, err = trace.CriticalPathOf(sp) })
	if err != nil {
		return "", err
	}
	if cp.End != res.MakeSpan {
		return "", fmt.Errorf("critical path ends at %v, makespan is %v", cp.End, res.MakeSpan)
	}
	var ru *trace.Rollup
	c.span("trace", "rollup", func() { ru, err = trace.RollupOf(sp, trace.RollupOptions{TopK: 8}) })
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s events=%d cp=%x hops=%d rollup=%x/%d", resultLine(res), events,
		math.Float64bits(cp.End), len(cp.Hops), math.Float64bits(ru.MakeSpan), ru.Events), nil
}
