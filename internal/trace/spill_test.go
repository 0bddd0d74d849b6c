package trace_test

// Spill round-trip and streaming-equivalence coverage, driven through the
// goroutine-free sched engine so the large instances stay affordable.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"hbsp/internal/barrier"
	"hbsp/internal/platform"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

// runDissemination evaluates execs dissemination barriers at P ranks under
// the direct engine with the given recorder attached. The scaled Xeon
// cluster profile accommodates any rank count (8 cores per node).
func runDissemination(t testing.TB, procs int, seed int64, execs int, rec *trace.Recorder) *simnet.Result {
	t.Helper()
	s, err := barrier.Dissemination(procs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := platform.XeonClusterMachine(procs)
	if err != nil {
		t.Fatal(err)
	}
	o := simnet.DefaultOptions()
	o.Recorder = rec
	res, err := sched.RunSchedule(context.Background(), m.WithRunSeed(seed), s, execs, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStreamingMatchesMaterialized is the acceptance equivalence: at
// P ∈ {16, 256, 4096} the streaming analyses over the merged-order iterator
// and over a spill round trip match the in-RAM trace bit for bit — the
// critical path ends exactly at the makespan, breakdowns/h-relations/
// stragglers are deep-equal, and the event/Chrome renderings are
// byte-identical.
func TestStreamingMatchesMaterialized(t *testing.T) {
	for _, procs := range []int{16, 256, 4096} {
		if procs == 4096 && testing.Short() {
			continue
		}
		t.Run(tName(procs), func(t *testing.T) {
			rec := trace.NewRecorder()
			res := runDissemination(t, procs, 11, 2, rec)
			tr, err := rec.Trace()
			if err != nil {
				t.Fatal(err)
			}

			// Materialized merge order == streaming iterator order.
			events := tr.Events()
			it, err := trace.NewIter(tr)
			if err != nil {
				t.Fatal(err)
			}
			for i := range events {
				ev, ok := it.Next()
				if !ok {
					t.Fatalf("iterator ended at event %d of %d", i, len(events))
				}
				if ev != events[i] {
					t.Fatalf("event %d: iterator %+v, materialized %+v", i, ev, events[i])
				}
			}
			if _, ok := it.Next(); ok {
				t.Fatal("iterator yields events past the materialized stream")
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}

			// The streaming critical path must end exactly at the makespan.
			cp, err := trace.CriticalPathOf(tr)
			if err != nil {
				t.Fatal(err)
			}
			if cp.End != res.MakeSpan {
				t.Fatalf("critical path end %v != makespan %v", cp.End, res.MakeSpan)
			}

			// Spill round trip: canonical bytes reopen into a Source whose
			// analyses and renderings match the in-RAM trace exactly.
			var raw bytes.Buffer
			if err := trace.WriteSpill(&raw, tr); err != nil {
				t.Fatal(err)
			}
			sp, err := trace.OpenSpill(bytes.NewReader(raw.Bytes()), int64(raw.Len()))
			if err != nil {
				t.Fatal(err)
			}
			if got := trace.NumEventsOf(sp); got != len(events) {
				t.Fatalf("spill holds %d events, trace %d", got, len(events))
			}
			assertSourcesAgree(t, tr, sp)

			var again bytes.Buffer
			if err := trace.WriteSpill(&again, sp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw.Bytes(), again.Bytes()) {
				t.Fatal("re-serializing the reopened spill changed the bytes")
			}
		})
	}
}

// analyses is everything the package computes or renders from one source.
type analyses struct {
	CP         *trace.CriticalPath
	Breakdown  *trace.Breakdown
	HRelations []trace.HRelation
	Stragglers []trace.Straggler
	Rollup     *trace.Rollup
	Report     []byte
	Stream     []trace.Event // the merged iterator, to exhaustion
	// Events and Chrome are the two per-event renderings, which cost more
	// than everything above together; nil unless asked for.
	Events, Chrome []byte
}

func analysesOf(t testing.TB, src trace.Source, renderEvents bool) analyses {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var a analyses
	var err error
	a.CP, err = trace.CriticalPathOf(src)
	must(err)
	a.Breakdown, err = trace.BreakdownOf(src)
	must(err)
	a.HRelations, err = trace.HRelationsOf(src)
	must(err)
	a.Stragglers = trace.StragglersOf(src)
	a.Rollup, err = trace.RollupOf(src, trace.RollupOptions{})
	must(err)
	var rp bytes.Buffer
	must(trace.WriteReport(&rp, src, trace.ReportOptions{}))
	a.Report = rp.Bytes()
	it, err := trace.NewIter(src)
	must(err)
	a.Stream = make([]trace.Event, 0, trace.NumEventsOf(src))
	for ev, ok := it.Next(); ok; ev, ok = it.Next() {
		a.Stream = append(a.Stream, ev)
	}
	must(it.Err())
	if renderEvents {
		var ev, ch bytes.Buffer
		must(trace.WriteEvents(&ev, src))
		must(trace.WriteChrome(&ch, src))
		a.Events, a.Chrome = ev.Bytes(), ch.Bytes()
	}
	return a
}

// assertAgree requires every analysis and rendering of got to equal want's,
// deeply or byte for byte.
func assertAgree(t testing.TB, want, got analyses) {
	t.Helper()
	w, g := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < w.NumField(); i++ {
		if !reflect.DeepEqual(w.Field(i).Interface(), g.Field(i).Interface()) {
			t.Fatalf("%s differs between sources", w.Type().Field(i).Name)
		}
	}
}

// assertSourcesAgree requires every analysis and renderer to produce
// identical results over the two sources.
func assertSourcesAgree(t *testing.T, a, b trace.Source) {
	t.Helper()
	assertAgree(t, analysesOf(t, a, true), analysesOf(t, b, true))
}

// TestSpilledRunStreamsDuringTheRun pins the spill sink mechanics on a small
// run: SpillTo arms one run, lanes flush mid-run at the chunk size, the
// recorder refuses to materialize the spilled run (ErrSpilled), and the file
// reopens into a Source whose analyses match an identical in-RAM run.
func TestSpilledRunStreamsDuringTheRun(t *testing.T) {
	const procs, seed = 64, 9
	path := filepath.Join(t.TempDir(), "run.hbsptrc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	rec.SpillTo(f, trace.SpillOptions{ChunkEvents: 16})
	res := runDissemination(t, procs, seed, 2, rec)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.SpillErr(); err != nil {
		t.Fatalf("spill error: %v", err)
	}
	if _, err := rec.Trace(); err != trace.ErrSpilled {
		t.Fatalf("Trace() after a spilled run = %v, want ErrSpilled", err)
	}
	chunks, events, _ := rec.SpillStats()
	if chunks <= procs {
		t.Fatalf("only %d chunks for %d lanes — nothing flushed mid-run", chunks, procs)
	}

	sp, err := trace.OpenSpillFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if int64(trace.NumEventsOf(sp)) != events {
		t.Fatalf("spill file holds %d events, sink reported %d", trace.NumEventsOf(sp), events)
	}
	if sp.RunSummary().MakeSpan != res.MakeSpan {
		t.Fatalf("spilled makespan %v != run makespan %v", sp.RunSummary().MakeSpan, res.MakeSpan)
	}

	// An identical run recorded in RAM must agree analysis-for-analysis.
	rec2 := trace.NewRecorder()
	runDissemination(t, procs, seed, 2, rec2)
	tr, err := rec2.Trace()
	if err != nil {
		t.Fatal(err)
	}
	assertSourcesAgree(t, tr, sp)

	// The recorder is reusable after a spilled run.
	runDissemination(t, 8, 1, 1, rec)
	if tr3, err := rec.Trace(); err != nil || tr3.NumLanes() != 8 {
		t.Fatalf("recorder did not recover after a spilled run: %v", err)
	}
}

// TestSpillBackedP65536 is the acceptance scale point: a traced P=65536
// dissemination sync completes with bounded recorder memory — lanes stream
// to disk at the chunk size instead of accumulating — and the streaming
// critical path and rollup run directly off the file.
func TestSpillBackedP65536(t *testing.T) {
	if testing.Short() {
		t.Skip("P=65536 traced run in -short mode")
	}
	const procs = 65536
	path := filepath.Join(t.TempDir(), "run.hbsptrc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	// 24-event chunks bound resident recorder memory at ~procs×24 events
	// (~100 MB would be the un-spilled footprint; resident stays ~1/4 of
	// a full run's events) while exercising many mid-run flushes per lane.
	rec.SpillTo(f, trace.SpillOptions{ChunkEvents: 24})
	res := runDissemination(t, procs, 3, 1, rec)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.SpillErr(); err != nil {
		t.Fatalf("spill error: %v", err)
	}
	chunks, events, bytesOut := rec.SpillStats()
	if chunks <= procs {
		t.Fatalf("only %d chunks for %d lanes — lanes were not streamed during the run", chunks, procs)
	}
	if events < int64(procs) {
		t.Fatalf("suspiciously few events spilled: %d", events)
	}
	t.Logf("P=%d: %d events in %d chunks, %d spill bytes", procs, events, chunks, bytesOut)

	sp, err := trace.OpenSpillFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	cp, err := trace.CriticalPathOf(sp)
	if err != nil {
		t.Fatal(err)
	}
	if cp.End != res.MakeSpan {
		t.Fatalf("critical path end %v != makespan %v", cp.End, res.MakeSpan)
	}
	ru, err := trace.RollupOf(sp, trace.RollupOptions{TopK: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Rollup.Events counts non-mark events; the stream also carries one
	// stage mark per rank per stage.
	if ru.Events <= 0 || int64(ru.Events) >= events || len(ru.TopSlack) != 8 {
		t.Fatalf("rollup covers %d of %d events with %d slack ranks", ru.Events, events, len(ru.TopSlack))
	}
}

// TestSpilledRunPaysForItsEvents bounds what a spilled run allocates by the
// events it records: a P = 256 allreduce records about 30 events a lane,
// and its lanes grow their first chunk with them rather than reserving the
// whole 512-event chunk each up front, 8 MB together.
func TestSpilledRunPaysForItsEvents(t *testing.T) {
	s, err := barrier.AllReduce(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	if mb, events := spilledRunMB(t, s); mb > 4 {
		t.Fatalf("a spilled P=256 allreduce of %d events allocated %.1f MB, want at most 4", events, mb)
	}
}

// TestSpilledRunFootprint bounds what a spilled run allocates by the spill
// budget, whatever its events: a P = 1,024 total exchange records 4.1
// million events, which the lanes fill into 128-event chunks and the
// encoder drains behind them, 16 MiB of columns at most.
func TestSpilledRunFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	s, err := barrier.TotalExchange(1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	if mb, events := spilledRunMB(t, s); mb > 24 {
		t.Fatalf("a spilled P=1024 total exchange of %d events allocated %.1f MB, want at most 24", events, mb)
	}
}

// spilledRunMB spills a run of s on the Xeon cluster at the default
// chunking, twice so the machine's and schedule's memos are warm, and
// returns the megabytes the second run allocated and the events it spilled.
func spilledRunMB(t *testing.T, s sched.Schedule) (float64, int64) {
	t.Helper()
	m, err := platform.XeonClusterMachine(s.NumProcs())
	if err != nil {
		t.Fatal(err)
	}
	o := simnet.DefaultOptions()
	run := func() {
		o.Recorder = trace.NewRecorder()
		o.Recorder.SpillTo(io.Discard, trace.SpillOptions{})
		if _, err := sched.RunSchedule(context.Background(), m.WithRunSeed(5), s, 1, o); err != nil {
			t.Fatal(err)
		}
		if err := o.Recorder.SpillErr(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	_, events, _ := o.Recorder.SpillStats()
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("P=%d: %d events, %.2f MB allocated", s.NumProcs(), events, mb)
	return mb, events
}

// TestStreamedSpillBytesPinned pins the bytes of spills streamed during a
// direct-engine run of a P=256 total exchange, at the default chunking and
// at 17 events, a chunk that ends inside a staging block: the hashes were
// taken before lanes staged their events, so a chunk written at another
// Append than the one that filled it, and so out of the file's order, fails
// here.
func TestStreamedSpillBytesPinned(t *testing.T) {
	for chunkEvents, want := range map[int]string{
		0:  "cf56b50b5d46b0125ea5b5300a25f89258efb91143f8aea18d9915f7f3111fd6",
		17: "d98eae4eaa619d742e9e6c59148d035219d4f6aeb28b0e99f1664e992696dc63",
	} {
		h := sha256.New()
		rec := trace.NewRecorder()
		rec.SpillTo(h, trace.SpillOptions{ChunkEvents: chunkEvents})
		runTotalExchange(t, 256, false, rec)
		if err := rec.SpillErr(); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("ChunkEvents %d: streamed spill hashes to %s, want %s", chunkEvents, got, want)
		}
	}
}

// assertGoroutines waits briefly for the goroutine count to fall back to
// base: no goroutine outlives the call that started it.
func assertGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; i < 200 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines, %d before", n, base)
	}
}

// failAfter accepts n bytes, then fails every write with err.
type failAfter struct {
	n   int
	err error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// TestSpillErrWrapsWriteFailure records into a writer that fails partway
// through the run: the run ends, SpillErr wraps the writer's error, and the
// recorder records the next run.
func TestSpillErrWrapsWriteFailure(t *testing.T) {
	base := runtime.NumGoroutine()
	full := errors.New("disk full")
	rec := trace.NewRecorder()
	rec.SpillTo(&failAfter{n: 4096, err: full}, trace.SpillOptions{ChunkEvents: 16})
	runDissemination(t, 64, 9, 2, rec)
	if err := rec.SpillErr(); !errors.Is(err, full) {
		t.Fatalf("SpillErr = %v, want it to wrap %v", err, full)
	}
	runDissemination(t, 8, 1, 1, rec)
	if _, err := rec.Trace(); err != nil {
		t.Fatalf("recorder did not recover after a failed spill: %v", err)
	}
	assertGoroutines(t, base)
}

// TestAppendAfterUncleanEndRun keeps recording on a lane after the run was
// sealed unclean, as a rank the teardown could not stop would: the appends
// neither panic nor block, and the file gets no byte after EndRun.
func TestAppendAfterUncleanEndRun(t *testing.T) {
	base := runtime.NumGoroutine()
	var raw bytes.Buffer
	rec := trace.NewRecorder()
	rec.SpillTo(&raw, trace.SpillOptions{ChunkEvents: 4})
	rec.BeginRun(trace.Meta{Procs: 2})
	lane := rec.LaneOf(1)
	ev := trace.Event{Kind: trace.KindCompute, Peer: -1, SendSeq: -1, Stage: -1, T1: 1}
	for range 6 {
		lane.Append(ev)
	}
	rec.EndRun(nil, 0, 0, 0, nil, false)
	sealed := raw.Len()
	for range 100 {
		lane.Append(ev)
	}
	if raw.Len() != sealed {
		t.Fatalf("%d bytes written after the unclean EndRun", raw.Len()-sealed)
	}
	if err := rec.SpillErr(); !errors.Is(err, trace.ErrUnclean) {
		t.Fatalf("SpillErr = %v, want ErrUnclean", err)
	}
	assertGoroutines(t, base)
}

// TestEachLaneStopsAtCorruptChunk damages one chunk in the middle of the
// probe file: the whole-run passes, which read ahead on two goroutines,
// return ErrCorruptSpill, and so does a consumer that panics leave no
// goroutine behind.
func TestEachLaneStopsAtCorruptChunk(t *testing.T) {
	base := runtime.NumGoroutine()
	data := smallSpill(t)
	const lane = 9
	damaged := false
	for _, at := range recordStarts(t, data) {
		// A chunk record: 'C', uvarint rank, uvarint count, then the raw
		// Kind column; rank and count fit a byte each here.
		if data[at] == 'C' && data[at+1] == lane {
			data[at+3] = 0xff // an unknown kind
			damaged = true
			break
		}
	}
	if !damaged {
		t.Fatalf("no chunk of lane %d in the probe file", lane)
	}
	sp, err := trace.OpenSpill(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.RollupOf(sp, trace.RollupOptions{}); !errors.Is(err, trace.ErrCorruptSpill) {
		t.Fatalf("RollupOf = %v, want ErrCorruptSpill", err)
	}
	if _, err := trace.BreakdownOf(sp); !errors.Is(err, trace.ErrCorruptSpill) {
		t.Fatalf("BreakdownOf = %v, want ErrCorruptSpill", err)
	}
	var lanes []int
	err = sp.EachLane(trace.Projections["all"], func(rank int, _ *trace.Cols) { lanes = append(lanes, rank) })
	if !errors.Is(err, trace.ErrCorruptSpill) || len(lanes) == 0 || lanes[len(lanes)-1] >= lane {
		t.Fatalf("EachLane = %v after lanes %v, want ErrCorruptSpill before lane %d", err, lanes, lane)
	}
	func() {
		defer func() { recover() }()
		sp.EachLane(trace.Projections["all"], func(int, *trace.Cols) { panic("consumer gave up") })
	}()
	assertGoroutines(t, base)
}

// TestEachLaneErrorOnSecondDecoder damages the chunk at place 9 of the
// rank-then-chunk order, one the second decoder reads while the consumer
// still holds place 0: the consumer gets places 0 to 8, in order and
// intact, then ErrCorruptSpill, and both decoders exit.
func TestEachLaneErrorOnSecondDecoder(t *testing.T) {
	base := runtime.NumGoroutine()
	data := smallSpill(t)
	sp, err := trace.OpenSpill(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	type chunk struct {
		rank int
		cols trace.Cols
	}
	var want []chunk
	if err := sp.EachLane(trace.Projections["all"], func(rank int, c *trace.Cols) {
		want = append(want, chunk{rank, c.Clone()})
	}); err != nil {
		t.Fatal(err)
	}
	const place = 9
	rank, i := want[place].rank, 0
	for k := place; k > 0 && want[k-1].rank == rank; k-- {
		i++
	}
	mut := append([]byte(nil), data...)
	mut[sp.ChunkOffsets(rank)[i]+3] = 0xff // the first Kind byte, as above
	bad, err := trace.OpenSpill(bytes.NewReader(mut), int64(len(mut)))
	if err != nil {
		t.Fatal(err)
	}
	var got []chunk
	err = bad.EachLane(trace.Projections["all"], func(rank int, c *trace.Cols) {
		if len(got) == 0 {
			time.Sleep(10 * time.Millisecond) // let both decoders run ahead
		}
		got = append(got, chunk{rank, c.Clone()})
	})
	if !errors.Is(err, trace.ErrCorruptSpill) {
		t.Fatalf("EachLane = %v, want ErrCorruptSpill", err)
	}
	if !reflect.DeepEqual(got, want[:place]) {
		t.Fatalf("the consumer got %d chunks before the error, want the %d before place %d as read from the intact file", len(got), place, place)
	}
	assertGoroutines(t, base)
}

func tName(p int) string {
	switch p {
	case 16:
		return "p16"
	case 256:
		return "p256"
	default:
		return "p4096"
	}
}
