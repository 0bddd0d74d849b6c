package experiments

import (
	"slices"
	"strings"
	"testing"

	"hbsp/internal/barrier"
	"hbsp/internal/bsp"
	"hbsp/internal/platform"
)

func tinyOptions() Options {
	return Options{
		Reps:              2,
		ProcStep:          8,
		MaxProcsXeon:      16,
		MaxProcsOpteron:   24,
		StencilLargeN:     192,
		StencilSmallN:     96,
		StencilIterations: 2,
		Synthetic:         true,
	}
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.normalize()
	q := Quick()
	if o.Reps != q.Reps || o.MaxProcsXeon != q.MaxProcsXeon || o.StencilLargeN != q.StencilLargeN {
		t.Fatalf("normalize did not apply defaults: %+v", o)
	}
	f := Full()
	if f.MaxProcsXeon != 64 || f.MaxProcsOpteron != 144 {
		t.Fatalf("Full() sweeps wrong: %+v", f)
	}
}

func TestProcSweep(t *testing.T) {
	s := procSweep(8, 32)
	if s[0] != 2 || s[len(s)-1] != 32 {
		t.Fatalf("procSweep = %v", s)
	}
	if got := procSweep(8, 1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("degenerate sweep = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "demo", Columns: []string{"a", "b"}}
	tbl.AddRow("1", "2")
	s := tbl.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "1") {
		t.Fatalf("table rendering wrong: %q", s)
	}
}

func TestTable3_1AndFig3_2(t *testing.T) {
	prof := platform.Xeon8x2x4()
	opts := tinyOptions()
	rows, err := Table3_1(prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // P = 8, 16
		t.Fatalf("expected 2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.R <= 0 || r.L <= 0 {
			t.Fatalf("implausible row %+v", r)
		}
	}
	if s := Table3_1Table(rows).String(); !strings.Contains(s, "Table 3.1") {
		t.Fatal("table title missing")
	}
	points, err := Fig3_2(prof, rows, 1<<20, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(rows) {
		t.Fatalf("Fig3_2 points = %d", len(points))
	}
	for _, p := range points {
		if p.Measured <= 0 || p.Estimated <= 0 {
			t.Fatalf("bad point %+v", p)
		}
		// The thesis' observation: the classic estimate deviates wildly
		// (here: it overprices the program by at least 2x).
		if p.Estimated < p.Measured {
			t.Logf("note: estimate %g below measurement %g at P=%d", p.Estimated, p.Measured, p.P)
		}
	}
}

func TestFig4Series(t *testing.T) {
	prof := platform.Xeon8x2x4()
	rates, err := Fig4_2(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) == 0 {
		t.Fatal("no rate points")
	}
	preds, err := Fig4_3(prof, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	sawStencilMisprediction := false
	for _, p := range preds {
		if p.Predicted <= 0 || p.Measured <= 0 {
			t.Fatalf("bad prediction point %+v", p)
		}
		if p.RelativeError > 0.5 {
			t.Fatalf("kernel-specific prediction error too large: %+v", p)
		}
		if p.Kernel == "stencil5" && p.MflopsDerived > 0 {
			if relDiff(p.MflopsDerived, p.Measured) > 0.05 {
				sawStencilMisprediction = true
			}
		}
	}
	if !sawStencilMisprediction {
		t.Error("expected the DAXPY-derived rate to mispredict the stencil kernel")
	}
	blas, err := Fig4_5(platform.AthlonX2(), 512*1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(blas) == 0 {
		t.Fatal("no BLAS points")
	}
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

func TestFig5AndFig6Series(t *testing.T) {
	prof := platform.Xeon8x2x4()
	opts := tinyOptions()
	points, err := Fig5_6Series(prof, opts.MaxProcsXeon, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no barrier points")
	}
	for _, p := range points {
		if p.Measured <= 0 || p.Predicted <= 0 {
			t.Fatalf("bad barrier point %+v", p)
		}
	}
	if s := BarrierTable("Fig 5.6", points).String(); !strings.Contains(s, "dissemination") {
		t.Fatal("barrier table missing algorithms")
	}
	sync, err := Fig6_3Series(prof, opts.MaxProcsXeon, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sync {
		if p.Measured <= 0 || p.Predicted <= 0 {
			t.Fatalf("bad sync point %+v", p)
		}
		if p.RelError > 3 || p.RelError < -0.95 {
			t.Fatalf("sync prediction out of control: %+v", p)
		}
	}
}

func TestTable7AndFig7Series(t *testing.T) {
	res, err := Table7_1(platform.Xeon8x2x4(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Procs != 60 || res.Subsets != 8 {
		t.Fatalf("60-process SSS clustering: %+v", res)
	}
	res2, err := Table7_1(platform.Opteron10x2x6(), 115)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Procs != 115 || res2.Subsets != 10 {
		t.Fatalf("115-process SSS clustering: %+v", res2)
	}

	opts := tinyOptions()
	hybrid, err := Fig7_4Series(platform.Xeon8x2x4(), 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(hybrid) == 0 {
		t.Fatal("no hybrid points")
	}
	for _, h := range hybrid {
		if h.Adapted <= 0 || h.Dissemination <= 0 || h.Linear <= 0 {
			t.Fatalf("bad hybrid point %+v", h)
		}
		// The adapted barrier must beat the linear default clearly.
		if h.Adapted > h.Linear {
			t.Errorf("adapted barrier (%g) slower than linear default (%g) at P=%d", h.Adapted, h.Linear, h.Procs)
		}
	}
}

func TestTable8AndFig8Series(t *testing.T) {
	prof := platform.Xeon8x2x4()
	opts := tinyOptions()

	rows := Table8_1(opts)
	if len(rows) != 10 {
		t.Fatalf("Table 8.1 rows = %d", len(rows))
	}
	if s := Table8_1Table(rows).String(); !strings.Contains(s, "Table 8.1") {
		t.Fatal("table title missing")
	}

	wall, err := Table8_2(prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(wall) == 0 {
		t.Fatal("no wall-time rows")
	}
	for _, w := range wall {
		if w.MPI <= 0 || w.MPIR <= 0 {
			t.Fatalf("bad wall-time row %+v", w)
		}
	}

	scaling, err := Fig8_4Series(prof, opts.StencilSmallN, []string{"bsp", "mpi"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(scaling) == 0 {
		t.Fatal("no scaling points")
	}
	if _, err := Fig8_4Series(prof, opts.StencilSmallN, []string{"bogus"}, opts); err == nil {
		t.Fatal("unknown implementation should fail")
	}

	preds, err := Fig8_10Series(prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) == 0 {
		t.Fatal("no prediction points")
	}
	foundOverlapLarge := false
	for _, p := range preds {
		if p.Predicted <= 0 || p.Measured <= 0 {
			t.Fatalf("bad prediction point %+v", p)
		}
		if p.Variant == "overlap" && p.Problem == "large" {
			foundOverlapLarge = true
			if p.RelError > 2 || p.RelError < -0.8 {
				t.Errorf("overlap-model prediction error out of range: %+v", p)
			}
		}
	}
	if !foundOverlapLarge {
		t.Fatal("missing overlap/large prediction points")
	}

	sweep, err := Fig8_18Series(prof, 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 5 {
		t.Fatalf("overlap sweep points = %d", len(sweep))
	}
	for _, p := range sweep {
		if p.Predicted <= 0 || p.Measured <= 0 {
			t.Fatalf("bad overlap point %+v", p)
		}
	}
	// The measured iteration time with a full overlap window must not be
	// slower than with none.
	if sweep[len(sweep)-1].Measured > sweep[0].Measured*1.1 {
		t.Errorf("full overlap window (%g) slower than none (%g)", sweep[len(sweep)-1].Measured, sweep[0].Measured)
	}
}

// TestStencilProcRows holds the process counts of Table 8.2 and of the B
// series to 4, 16 and MaxProcsXeon, ascending, once each and none past the
// maximum.
func TestStencilProcRows(t *testing.T) {
	prof := platform.Xeon8x2x4()
	for _, tc := range []struct {
		max  int
		want []int
	}{{8, []int{4, 8}}, {16, []int{4, 16}}, {32, []int{4, 16, 32}}, {64, []int{4, 16, 64}}} {
		opts := tinyOptions()
		opts.MaxProcsXeon, opts.Reps, opts.StencilIterations = tc.max, 1, 1
		opts.StencilLargeN, opts.StencilSmallN = 96, 64
		wall, err := Table8_2(prof, opts)
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for _, w := range wall {
			got = append(got, w.Procs)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("MaxProcsXeon %d: Table 8.2 rows at P = %v, want %v", tc.max, got, tc.want)
		}
		preds, err := Fig8_10Series(prof, opts)
		if err != nil {
			t.Fatal(err)
		}
		got = got[:0]
		for _, p := range preds {
			if p.Problem == "large" && p.Variant == "overlap" {
				got = append(got, p.Procs)
			}
		}
		if !slices.Equal(got, tc.want) || len(preds) != 2*3*len(tc.want) {
			t.Errorf("MaxProcsXeon %d: B series at P = %v (%d points), want %v on each problem and variant", tc.max, got, len(preds), tc.want)
		}
	}
}

func TestCollectiveSeries(t *testing.T) {
	prof := platform.Xeon8x2x4()
	opts := tinyOptions()
	points, err := CollectiveSeries(prof, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	perCollective := map[string]int{}
	for _, p := range points {
		perCollective[p.Collective]++
		if p.Measured <= 0 || p.Predicted <= 0 {
			t.Fatalf("bad collective point %+v", p)
		}
		if p.Stages < 1 {
			t.Fatalf("collective %q reports %d stages", p.Collective, p.Stages)
		}
		// Same control band the sync-payload experiment tolerates.
		if p.RelError > 3 || p.RelError < -0.95 {
			t.Fatalf("collective prediction out of control: %+v", p)
		}
	}
	for _, name := range []string{"broadcast", "reduce", "allreduce", "allgather", "total-exchange"} {
		if perCollective[name] == 0 {
			t.Errorf("no points for collective %q", name)
		}
	}
	if s := CollectiveTable("Collectives", points).String(); !strings.Contains(s, "total-exchange") {
		t.Fatal("collective table missing rows")
	}
}

func TestAdaptedSyncSeries(t *testing.T) {
	prof := platform.Xeon8x2x4()
	opts := tinyOptions()
	points, err := AdaptedSyncSeries(prof, 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no adapted-sync points")
	}
	for _, p := range points {
		if p.Best == "" || p.Predicted <= 0 || p.Dissemination <= 0 || p.Adapted <= 0 {
			t.Fatalf("bad adapted-sync point %+v", p)
		}
		// The model-selected schedule must not make the runtime drastically
		// slower than the dissemination default it was chosen to match/beat.
		if p.Adapted > 2*p.Dissemination {
			t.Errorf("adapted synchronizer (%g) much slower than default (%g) at P=%d",
				p.Adapted, p.Dissemination, p.Procs)
		}
	}
	if s := AdaptedSyncTable("Adapted", points).String(); !strings.Contains(s, "dissemination") {
		t.Fatal("adapted-sync table missing rows")
	}
}

// At 60 processes on the Xeon preset (the thesis' Table 7.1 configuration,
// with uneven cluster sizes) the payload-aware greedy selection must pick a
// hierarchical hybrid schedule, and executing it through the Synchronizer
// must beat the dissemination default it replaces.
func TestAdaptedSynchronizerHybridWinsAt60(t *testing.T) {
	prof := platform.Xeon8x2x4()
	prof.NoiseRel = 0
	m, err := prof.Machine(60)
	if err != nil {
		t.Fatal(err)
	}
	params, err := barrierParams(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	sync, res, err := bsp.NewAdaptedSynchronizer(params, barrier.DefaultCostOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Best.Name, "hybrid(") {
		t.Fatalf("expected a hybrid schedule at P=60, selection picked %q", res.Best.Name)
	}
	program := func(ctx *bsp.Ctx) error { return ctx.Sync() }
	adapted, err := bsp.RunWith(m, sync, program)
	if err != nil {
		t.Fatal(err)
	}
	base, err := bsp.Run(m, program)
	if err != nil {
		t.Fatal(err)
	}
	if adapted.MakeSpan >= base.MakeSpan {
		t.Fatalf("adapted hybrid sync (%g) not faster than the dissemination default (%g)",
			adapted.MakeSpan, base.MakeSpan)
	}
}
