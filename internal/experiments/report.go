package experiments

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"hbsp/internal/platform"
)

// sections is the evaluation report in thesis order, one entry per chapter.
// Each table of the evaluation is rendered here and nowhere else:
// cmd/experiments prints the sections it is asked for, all of them by default.
var sections = []struct {
	name string
	run  func(w io.Writer, opts Options) error
}{
	{"model", modelSection},
	{"rates", ratesSection},
	{"barriers", barriersSection},
	{"adapt", adaptSection},
	{"collectives", collectivesSection},
	{"scaling", scalingSection},
	{"faults", faultsSection},
	{"stencil", stencilSection},
}

// RunSections writes the named sections of the report to w, in thesis order
// whatever the order of names; no name selects every section. A name that is
// not a section is an error listing the sections, returned before anything
// runs.
func RunSections(w io.Writer, opts Options, names ...string) error {
	opts = opts.normalize()
	known := make([]string, len(sections))
	for i, s := range sections {
		known[i] = s.name
	}
	for _, n := range names {
		if !slices.Contains(known, n) {
			return fmt.Errorf("unknown section %q (sections: %s)", n, strings.Join(known, ", "))
		}
	}
	out := &firstErrWriter{w: w}
	for _, s := range sections {
		if len(names) > 0 && !slices.Contains(names, s.name) {
			continue
		}
		if err := s.run(out, opts); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		if out.err != nil {
			return out.err
		}
	}
	return nil
}

// firstErrWriter keeps the first write error, so that the sections can print
// table after table and RunSections report a failed write once.
type firstErrWriter struct {
	w   io.Writer
	err error
}

func (f *firstErrWriter) Write(p []byte) (int, error) {
	if f.err != nil {
		return 0, f.err
	}
	n, err := f.w.Write(p)
	f.err = err
	return n, err
}

// emit writes one table and the blank line that separates it from the next.
func emit(w io.Writer, t *Table) { fmt.Fprint(w, t.String(), "\n") }

// tableOf renders one row per point.
func tableOf[T any](title string, columns []string, points []T, row func(T) []string) *Table {
	t := &Table{Title: title, Columns: columns}
	for _, p := range points {
		t.AddRow(row(p)...)
	}
	return t
}

// innerProductN is the inner-product problem size of Fig 3.2.
const innerProductN = 1 << 22

// modelSection is Chapter 3: the classic scalar BSP parameters and what they
// predict for an inner product.
func modelSection(w io.Writer, opts Options) error {
	xeon := platform.Xeon8x2x4()
	rows, err := Table3_1(xeon, opts)
	if err != nil {
		return fmt.Errorf("table 3.1: %w", err)
	}
	emit(w, Table3_1Table(rows))

	inner, err := Fig3_2(xeon, rows, innerProductN, opts)
	if err != nil {
		return fmt.Errorf("fig 3.2: %w", err)
	}
	emit(w, tableOf(fmt.Sprintf("Fig 3.2: inner product (N=%d), measured vs classic BSP estimate", innerProductN),
		[]string{"P", "measured [s]", "estimate [s]", "ratio"}, inner, func(p InnerProductPoint) []string {
			return []string{strconv.Itoa(p.P), fmtSeconds(p.Measured), fmtSeconds(p.Estimated), fmt.Sprintf("%.1fx", p.Estimated/p.Measured)}
		}))
	return nil
}

// ratesSection is Chapter 4: computational rates.
func ratesSection(w io.Writer, opts Options) error {
	xeon := platform.Xeon8x2x4()
	rates, err := Fig4_2(xeon)
	if err != nil {
		return fmt.Errorf("fig 4.2: %w", err)
	}
	emit(w, tableOf("Fig 4.2: bspbench computation rates (2x4 cluster node)",
		[]string{"vector size", "Mflop/s"}, rates, func(r RatePoint) []string {
			return []string{strconv.Itoa(r.VectorSize), fmt.Sprintf("%.1f", r.Mflops)}
		}))

	preds, err := Fig4_3(xeon, opts)
	if err != nil {
		return fmt.Errorf("fig 4.3: %w", err)
	}
	emit(w, tableOf("Figs 4.3/4.4: kernel rate predictions vs measurement (1024-element problems)",
		[]string{"kernel", "applications", "predicted [s]", "measured [s]", "Mflops-derived [s]", "rel err"},
		preds, func(p KernelPredictionPoint) []string {
			return []string{p.Kernel, strconv.Itoa(p.Applications), fmtSeconds(p.Predicted), fmtSeconds(p.Measured),
				fmtSeconds(p.MflopsDerived), fmtPercent(p.RelativeError)}
		}))

	athlon := platform.AthlonX2()
	for _, sweep := range []struct {
		title    string
		maxBytes float64
	}{
		{"Fig 4.5: L1 BLAS, in-cache problem sizes (Athlon X2)", 60 * 1024},
		{"Fig 4.6: L1 BLAS, sizes crossing the L1 boundary (Athlon X2)", 512 * 1024},
	} {
		blas, err := Fig4_5(athlon, sweep.maxBytes)
		if err != nil {
			return fmt.Errorf("%s: %w", sweep.title, err)
		}
		emit(w, tableOf(sweep.title, []string{"kernel", "memory use [bytes]", "time [s]"}, blas, func(p BLASPoint) []string {
			return []string{p.Kernel, fmt.Sprintf("%.0f", p.FootprintBytes), fmtSeconds(p.Seconds)}
		}))
	}
	return nil
}

// barriersSection is Chapters 5 and 6 on both clusters: the barrier cost
// model, the payload-extended synchronization estimate, and the trace
// analysis that explains the measured curve.
func barriersSection(w io.Writer, opts Options) error {
	xeon := platform.Xeon8x2x4()
	for _, tc := range []struct {
		prof         *platform.Profile
		max          int
		barrier, bsp string
	}{
		{xeon, opts.MaxProcsXeon, "Figs 5.6-5.9: barriers on the 8x2x4 cluster", "Fig 6.3: BSP sync on the 8x2x4 cluster"},
		{platform.Opteron12x2x6(), opts.MaxProcsOpteron, "Figs 5.10-5.13: barriers on the 12x2x6 cluster", "Fig 6.4: BSP sync on the 12x2x6 cluster"},
	} {
		points, err := Fig5_6Series(tc.prof, tc.max, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", tc.barrier, err)
		}
		emit(w, BarrierTable(tc.barrier, points))

		sync, err := Fig6_3Series(tc.prof, tc.max, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", tc.bsp, err)
		}
		emit(w, tableOf(tc.bsp, []string{"P", "measured [s]", "estimate [s]", "rel err"}, sync, func(p SyncPoint) []string {
			return []string{strconv.Itoa(p.Procs), fmtSeconds(p.Measured), fmtSeconds(p.Predicted), fmtPercent(p.RelError)}
		}))
	}

	// The Fig 5.6 odd/even oscillation, explained by a consecutive-P sweep:
	// the cross-node gating-hop count tracks the placement, not the algorithm.
	breakdown, err := TraceBreakdownSeries(xeon, ConsecutiveProcs(opts.MaxProcsXeon-7, opts.MaxProcsXeon), opts)
	if err != nil {
		return fmt.Errorf("trace breakdown: %w", err)
	}
	emit(w, TraceBreakdownTable("Trace: dissemination barrier explained (8x2x4, consecutive P)", breakdown))
	return nil
}

// adaptSection is Chapter 7 (Case Study I): the SSS clustering and the
// adapted barrier against the flat defaults.
func adaptSection(w io.Writer, opts Options) error {
	xeon := platform.Xeon8x2x4()
	for _, tc := range []struct {
		prof  *platform.Profile
		procs int
		title string
	}{
		{xeon, 60, "Table 7.1: 60-process SSS clustering on the 8x2x4 configuration"},
		{platform.Opteron10x2x6(), 115, "Table 7.2: 115-process SSS clustering on the 10x2x6 configuration"},
	} {
		res, err := Table7_1(tc.prof, tc.procs)
		if err != nil {
			return fmt.Errorf("%s: %w", tc.title, err)
		}
		tbl := &Table{Title: tc.title, Columns: []string{"platform", "processes", "subsets", "sizes", "threshold [s]"}}
		tbl.AddRow(res.Platform, strconv.Itoa(res.Procs), strconv.Itoa(res.Subsets), fmt.Sprintf("%v", res.Sizes), fmtSeconds(res.Threshold))
		emit(w, tbl)
	}

	for _, tc := range []struct {
		prof  *platform.Profile
		max   int
		title string
	}{
		{xeon, opts.MaxProcsXeon, "Figs 7.4/7.6: adapted barrier vs defaults on the 8x2x4 cluster"},
		{platform.Opteron12x2x6(), opts.MaxProcsOpteron, "Figs 7.5/7.7: adapted barrier vs defaults on the 12x2x6 cluster"},
	} {
		hybrid, err := Fig7_4Series(tc.prof, tc.max, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", tc.title, err)
		}
		emit(w, tableOf(tc.title,
			[]string{"P", "best pattern", "adapted [s]", "predicted [s]", "dissemination [s]", "tree [s]", "linear [s]"},
			hybrid, func(h HybridPoint) []string {
				return []string{strconv.Itoa(h.Procs), h.BestName, fmtSeconds(h.Adapted), fmtSeconds(h.Predicted),
					fmtSeconds(h.Dissemination), fmtSeconds(h.Tree), fmtSeconds(h.Linear)}
			}))
	}
	return nil
}

// collectivesSection is the Chapter 5 matrix machinery generalized beyond
// barriers: every collective schedule measured against its prediction, and
// the model-selected count exchange run by the BSP synchronizer.
func collectivesSection(w io.Writer, opts Options) error {
	xeon := platform.Xeon8x2x4()
	for _, tc := range []struct {
		prof  *platform.Profile
		max   int
		title string
	}{
		{xeon, opts.MaxProcsXeon, "Collectives on the 8x2x4 cluster: measured vs predicted"},
		{platform.Opteron12x2x6(), opts.MaxProcsOpteron, "Collectives on the 12x2x6 cluster: measured vs predicted"},
	} {
		points, err := CollectiveSeries(tc.prof, tc.max, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", tc.title, err)
		}
		emit(w, CollectiveTable(tc.title, points))
	}

	adapted, err := AdaptedSyncSeries(xeon, opts.MaxProcsXeon, opts)
	if err != nil {
		return fmt.Errorf("adapted synchronizer: %w", err)
	}
	emit(w, AdaptedSyncTable("Adapted count-exchange schedule vs dissemination default (8x2x4)", adapted))
	return nil
}

// scalingSection is the direct evaluator beyond the concurrent sweeps: the
// count exchange collapsed by symmetry on flat homogeneous clusters, and the
// bytes and scale axes of the total exchange through reused SweepEvaluators
// (every point bit-identical to an independent evaluation).
func scalingSection(w io.Writer, opts Options) error {
	xeon := platform.Xeon8x2x4()
	collapse, err := CollapseScalingSeries(opts.CollapseProcs)
	if err != nil {
		return fmt.Errorf("collapse scaling: %w", err)
	}
	emit(w, CollapseScalingTable("Symmetry-collapsed sync scaling (flat homogeneous cluster)", collapse))

	bytesSweep, err := BytesSweepSeries(xeon, opts.MaxProcsXeon, []int{16, 64, 256, 1024})
	if err != nil {
		return fmt.Errorf("bytes sweep: %w", err)
	}
	emit(w, SweepSeriesTable("Incremental bytes sweep: total exchange (8x2x4)", bytesSweep))

	scaleSweep, err := ScaleSweepSeries(xeon, opts.MaxProcsXeon, 64, []float64{0.5, 1, 1.5, 2})
	if err != nil {
		return fmt.Errorf("scale sweep: %w", err)
	}
	emit(w, SweepSeriesTable("Incremental scale sweep: total exchange (8x2x4)", scaleSweep))
	return nil
}

// faultsSection is fault injection: predicted vs simulated makespan inflation
// under a single straggler, and fail-stop recovery cost vs checkpoint
// interval.
func faultsSection(w io.Writer, _ Options) error {
	straggler, err := StragglerSeries(16, 8, []float64{1, 1.5, 2, 4, 8})
	if err != nil {
		return fmt.Errorf("straggler sweep: %w", err)
	}
	emit(w, StragglerTable("Straggler inflation: predicted vs simulated (flat cluster, P=16)", straggler))

	recovery, err := RecoverySeries(16, 8, []float64{0, 0.7, 0.4, 0.15, 0.06})
	if err != nil {
		return fmt.Errorf("recovery sweep: %w", err)
	}
	emit(w, RecoveryTable("Fail-stop recovery cost vs checkpoint interval (flat cluster, P=16)", recovery))
	return nil
}

// stencilSection is Chapter 8 (Case Study II): the stencil evaluation.
func stencilSection(w io.Writer, opts Options) error {
	xeon := platform.Xeon8x2x4()
	emit(w, Table8_1Table(Table8_1(opts)))

	wall, err := Table8_2(xeon, opts)
	if err != nil {
		return fmt.Errorf("table 8.2: %w", err)
	}
	emit(w, tableOf("Table 8.2: MPI and MPI+R wall times (large problem)",
		[]string{"P", "MPI [s]", "MPI+R [s]", "speedup"}, wall, func(r WallTimeRow) []string {
			return []string{strconv.Itoa(r.Procs), fmtSeconds(r.MPI), fmtSeconds(r.MPIR), fmt.Sprintf("%.2fx", r.Speedup)}
		}))

	// Figs 8.5 and 8.6 (A2, A3) plot subsets of the A1 rows and are not run
	// again.
	for _, tc := range []struct {
		title string
		n     int
		impls []string
	}{
		{"Figs 8.4-8.6 (A1-A3): all implementations, large problem", opts.StencilLargeN, nil},
		{"Fig 8.7 (A4): bsp, mpi+r and hybrid, small problem", opts.StencilSmallN, []string{"bsp", "mpi+r", "hybrid"}},
	} {
		scaling, err := Fig8_4Series(xeon, tc.n, tc.impls, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", tc.title, err)
		}
		emit(w, tableOf(tc.title, []string{"implementation", "P", "time/iteration [s]"}, scaling, func(p ScalingPoint) []string {
			return []string{p.Implementation, strconv.Itoa(p.Procs), fmtSeconds(p.PerIteration)}
		}))
	}

	preds, err := Fig8_10Series(xeon, opts)
	if err != nil {
		return fmt.Errorf("figs 8.10-8.15: %w", err)
	}
	emit(w, tableOf("Figs 8.10-8.15 (B1-B6): prediction vs measurement",
		[]string{"problem", "variant", "P", "predicted [s]", "measured [s]", "rel err"}, preds, func(p PredictionPoint) []string {
			return []string{p.Problem, p.Variant, strconv.Itoa(p.Procs), fmtSeconds(p.Predicted), fmtSeconds(p.Measured), fmtPercent(p.RelError)}
		}))

	procs := min(16, opts.MaxProcsXeon)
	sweep, err := Fig8_18Series(xeon, procs, opts)
	if err != nil {
		return fmt.Errorf("fig 8.18: %w", err)
	}
	emit(w, tableOf(fmt.Sprintf("Fig 8.18 (C1): overlap adaptation sweep (P=%d)", procs),
		[]string{"overlap fraction", "predicted [s]", "measured [s]"}, sweep, func(p OverlapSweepPoint) []string {
			return []string{fmt.Sprintf("%.2f", p.Fraction), fmtSeconds(p.Predicted), fmtSeconds(p.Measured)}
		}))
	return nil
}
