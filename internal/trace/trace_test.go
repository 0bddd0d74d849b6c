package trace_test

// External test package: simnet imports internal/trace, so these tests sit
// outside the package to exercise the recorder through the real simulator.

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"hbsp/internal/barrier"
	"hbsp/internal/bsp"
	"hbsp/internal/mpi"
	"hbsp/internal/platform"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

func testMachine(t testing.TB, procs int, seed int64) *platform.Machine {
	t.Helper()
	prof := platform.Xeon8x2x4()
	m, err := prof.Machine(procs)
	if err != nil {
		t.Fatal(err)
	}
	return m.WithRunSeed(seed)
}

// exchangeProgram is a small deterministic BSP workload: one registration
// superstep, one superstep of ring puts, one of double-distance puts.
func exchangeProgram(ctx *bsp.Ctx) error {
	p := ctx.NProcs()
	area := make([]float64, p)
	ctx.PushReg("x", area)
	if err := ctx.Sync(); err != nil {
		return err
	}
	ctx.Compute(1e-6 * float64(ctx.Pid()+1))
	if err := ctx.Put((ctx.Pid()+1)%p, "x", ctx.Pid(), []float64{1}); err != nil {
		return err
	}
	if err := ctx.Sync(); err != nil {
		return err
	}
	if err := ctx.Put((ctx.Pid()+2)%p, "x", ctx.Pid(), []float64{2}); err != nil {
		return err
	}
	return ctx.Sync()
}

func recordBSP(t testing.TB, procs int, seed int64) (*trace.Trace, *simnet.Result) {
	t.Helper()
	rec := trace.NewRecorder()
	o := simnet.DefaultOptions()
	o.Recorder = rec
	res, err := bsp.Run(testMachine(t, procs, seed), exchangeProgram, o)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return tr, res
}

func TestDisabledRecorderIsValid(t *testing.T) {
	if trace.Disabled.Enabled() {
		t.Fatal("Disabled recorder claims to be enabled")
	}
	o := simnet.DefaultOptions()
	o.Recorder = trace.Disabled
	if _, err := bsp.Run(testMachine(t, 4, 1), exchangeProgram, o); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Disabled.Trace(); err != trace.ErrNoRun {
		t.Fatalf("Disabled.Trace() = %v, want ErrNoRun", err)
	}
}

func TestRecorderBeforeRun(t *testing.T) {
	if _, err := trace.NewRecorder().Trace(); err != trace.ErrNoRun {
		t.Fatalf("fresh recorder Trace() = %v, want ErrNoRun", err)
	}
}

func TestTraceMetadata(t *testing.T) {
	tr, res := recordBSP(t, 8, 4711)
	if tr.Meta.Procs != 8 {
		t.Fatalf("meta procs = %d, want 8", tr.Meta.Procs)
	}
	if !tr.Meta.SeedKnown || tr.Meta.Seed != 4711 {
		t.Fatalf("meta seed = (%v, %d), want (true, 4711) — WithRunSeed copy must reach the metadata", tr.Meta.SeedKnown, tr.Meta.Seed)
	}
	if tr.Meta.Machine == "" {
		t.Fatal("meta machine description empty")
	}
	if !tr.Meta.AckSends {
		t.Fatal("meta did not record the AckSends option")
	}
	if tr.MakeSpan != res.MakeSpan {
		t.Fatalf("trace makespan %v != result makespan %v", tr.MakeSpan, res.MakeSpan)
	}
	if tr.Messages != res.Messages || tr.Bytes != res.Bytes {
		t.Fatalf("trace traffic (%d msgs, %d B) != result (%d, %d)", tr.Messages, tr.Bytes, res.Messages, res.Bytes)
	}
}

func TestTraceDeterminism(t *testing.T) {
	var streams [2]string
	for i := range streams {
		tr, _ := recordBSP(t, 8, 99)
		var buf bytes.Buffer
		if err := trace.WriteEvents(&buf, tr); err != nil {
			t.Fatal(err)
		}
		streams[i] = buf.String()
	}
	if streams[0] != streams[1] {
		t.Fatal("two runs with the same seed produced different merged event streams")
	}
	trOther, _ := recordBSP(t, 8, 100)
	var buf bytes.Buffer
	if err := trace.WriteEvents(&buf, trOther); err != nil {
		t.Fatal(err)
	}
	if buf.String() == streams[0] {
		t.Fatal("different seeds produced identical event streams (noise not traced?)")
	}
}

func TestCriticalPathEndsAtMakespan(t *testing.T) {
	tr, res := recordBSP(t, 8, 7)
	cp := tr.CriticalPath()
	if cp.End != res.MakeSpan {
		t.Fatalf("critical path end %v != makespan %v (must match bit-for-bit)", cp.End, res.MakeSpan)
	}
	if len(cp.Hops) == 0 {
		t.Fatal("critical path has no hops")
	}
	if got := cp.Hops[len(cp.Hops)-1].Rank; got != cp.Rank {
		t.Fatalf("last hop on rank %d, want critical rank %d", got, cp.Rank)
	}
	if cp.Slack[cp.Rank] != 0 {
		t.Fatalf("critical rank %d has slack %v, want 0", cp.Rank, cp.Slack[cp.Rank])
	}
	// The chain must be contiguous in time: each hop starts no later than it
	// ends, and consecutive hops are joined by the in-flight message.
	for i, h := range cp.Hops {
		if h.From > h.To {
			t.Fatalf("hop %d runs backwards: [%v, %v]", i, h.From, h.To)
		}
		if i > 0 && h.ViaPeer != cp.Hops[i-1].Rank {
			t.Fatalf("hop %d arrived via rank %d, want previous hop's rank %d", i, h.ViaPeer, cp.Hops[i-1].Rank)
		}
	}
}

func TestCriticalPathOnMPIBarrier(t *testing.T) {
	m := testMachine(t, 16, 13)
	pat, err := barrier.Dissemination(16)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	o := simnet.DefaultOptions()
	o.Recorder = rec
	res, err := mpi.Run(m, func(c *mpi.Comm) error {
		barrier.Execute(c, pat)
		return nil
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	cp := tr.CriticalPath()
	if cp.End != res.MakeSpan {
		t.Fatalf("critical path end %v != makespan %v", cp.End, res.MakeSpan)
	}
	// A dissemination barrier's stages must show up as stage marks.
	stages := map[int32]bool{}
	for r := 0; r < tr.NumLanes(); r++ {
		for _, ev := range tr.LaneEvents(r) {
			if ev.Kind == trace.KindStage {
				stages[ev.Stage] = true
			}
		}
	}
	if len(stages) != pat.NumStages() {
		t.Fatalf("stage marks cover %d stages, pattern has %d", len(stages), pat.NumStages())
	}
}

func TestBreakdownAccountsForMakespan(t *testing.T) {
	tr, res := recordBSP(t, 8, 21)
	bd := tr.Breakdown()
	for rank := range bd.PerRank {
		rb := &bd.PerRank[rank]
		total := 0.0
		for _, v := range rb.ByCategory {
			total += v
		}
		// Every category including finish-skew: each rank's attributed time
		// must cover the makespan (zero-length operations carry no time).
		if math.Abs(total-res.MakeSpan) > 1e-9*res.MakeSpan {
			t.Fatalf("rank %d attributes %v of makespan %v", rank, total, res.MakeSpan)
		}
	}
	if bd.TotalByCategory(trace.CatCompute) <= 0 {
		t.Fatal("no compute time attributed")
	}
	if len(bd.PerStep) < 3 {
		t.Fatalf("per-step breakdown has %d buckets, want >= 3 supersteps", len(bd.PerStep))
	}
	for s := 0; s < 3; s++ {
		if bd.PerStep[s].Straggler < 0 {
			t.Fatalf("superstep %d has no straggler attribution", s)
		}
	}
}

func TestHRelations(t *testing.T) {
	tr, _ := recordBSP(t, 8, 5)
	hrs := tr.HRelations()
	if len(hrs) < 3 {
		t.Fatalf("h-relations cover %d steps, want >= 3", len(hrs))
	}
	// Superstep 1 is the ring-put step: every rank posts one put plus the
	// count exchange, so h must be positive and traffic symmetric.
	h := hrs[1]
	if h.HBytes <= 0 || h.Messages <= 0 {
		t.Fatalf("step 1 h-relation empty: %+v", h)
	}
	var total int64
	for _, hr := range hrs {
		total += hr.Bytes
	}
	if total != tr.Bytes {
		t.Fatalf("per-step bytes sum %d != trace total %d", total, tr.Bytes)
	}
}

func TestStragglersOrdering(t *testing.T) {
	tr, _ := recordBSP(t, 8, 2)
	st := trace.StragglersOf(tr)
	if len(st) != 8 {
		t.Fatalf("stragglers has %d entries, want 8", len(st))
	}
	if st[0].Slack != 0 {
		t.Fatalf("first straggler entry has slack %v, want 0 (critical rank)", st[0].Slack)
	}
	for i := 1; i < len(st); i++ {
		if st[i].Slack < st[i-1].Slack {
			t.Fatal("stragglers not ordered by slack")
		}
	}
}

func TestChromeExportIsValidJSON(t *testing.T) {
	tr, _ := recordBSP(t, 4, 3)
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
	if doc.OtherData["seed"] != "3" {
		t.Fatalf("chrome export seed = %v, want \"3\"", doc.OtherData["seed"])
	}
	kinds := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ph, _ := ev["ph"].(string); ph != "" {
			kinds[ph] = true
		}
	}
	for _, ph := range []string{"M", "X", "s", "f", "i"} {
		if !kinds[ph] {
			t.Fatalf("chrome export missing %q phase events (got %v)", ph, kinds)
		}
	}
}

func TestReportDeterministicAndComplete(t *testing.T) {
	var reports [2]string
	for i := range reports {
		tr, _ := recordBSP(t, 8, 77)
		var buf bytes.Buffer
		if err := trace.WriteReport(&buf, tr, trace.ReportOptions{}); err != nil {
			t.Fatal(err)
		}
		reports[i] = buf.String()
	}
	if reports[0] != reports[1] {
		t.Fatal("report not deterministic across identical runs")
	}
	for _, want := range []string{"critical path", "(== makespan)", "h-relations", "time breakdown", "seed: 77"} {
		if !bytes.Contains([]byte(reports[0]), []byte(want)) {
			t.Fatalf("report missing %q:\n%s", want, reports[0])
		}
	}
}

func TestMergedEventOrder(t *testing.T) {
	tr, _ := recordBSP(t, 8, 11)
	evs := tr.Events()
	if len(evs) != tr.NumEvents() {
		t.Fatalf("merged %d events, lanes hold %d", len(evs), tr.NumEvents())
	}
	for i := 1; i < len(evs); i++ {
		a, b := &evs[i-1], &evs[i]
		if a.T0 > b.T0 {
			t.Fatalf("merged events out of order at %d: %v > %v", i, a.T0, b.T0)
		}
	}
}

// TestRecorderReuse checks that a recorder attached to successive runs holds
// the latest run only.
func TestRecorderReuse(t *testing.T) {
	rec := trace.NewRecorder()
	o := simnet.DefaultOptions()
	o.Recorder = rec
	for _, procs := range []int{4, 8} {
		if _, err := bsp.Run(testMachine(t, procs, 1), exchangeProgram, o); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Meta.Procs != 8 || tr.NumLanes() != 8 {
		t.Fatalf("recorder holds procs=%d lanes=%d, want the last run's 8", tr.Meta.Procs, tr.NumLanes())
	}
}

func BenchmarkMergeAndAnalyze(b *testing.B) {
	rec := trace.NewRecorder()
	o := simnet.DefaultOptions()
	o.Recorder = rec
	if _, err := bsp.Run(testMachine(b, 16, 1), exchangeProgram, o); err != nil {
		b.Fatal(err)
	}
	tr, err := rec.Trace()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := tr.CriticalPath()
		bd := tr.Breakdown()
		if cp.End <= 0 || bd.MakeSpan <= 0 {
			b.Fatal("empty analysis")
		}
	}
}
