package trace_test

// The chunk layer of the spill reader: every analysis off a spill, at every
// chunking, equals the in-RAM trace, and the critical-path walk decodes the
// chunks it lands in rather than the lanes.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"hbsp/internal/barrier"
	"hbsp/internal/fault"
	"hbsp/internal/mpi"
	"hbsp/internal/platform"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

// chunkWorkload is one traced run of the direct engine, repeatable bit for
// bit, into whatever recorder it is given.
type chunkWorkload struct {
	name string
	run  func(t testing.TB, procs int, rec *trace.Recorder) *simnet.Result
	// reordered says the run records a neighbour pair out of (T0, T1) order,
	// the adjacency the merged iterator's two-slot window repairs.
	reordered bool
}

// hasAdjacentInversion reports whether some lane holds an event that sorts
// before its predecessor.
func hasAdjacentInversion(tr *trace.Trace) bool {
	for rank := 0; rank < tr.NumLanes(); rank++ {
		evs := tr.LaneEvents(rank)
		for i := 1; i < len(evs); i++ {
			a, b := &evs[i-1], &evs[i]
			if b.T0 < a.T0 || (b.T0 == a.T0 && b.T1 < a.T1) {
				return true
			}
		}
	}
	return false
}

// runTotalExchange evaluates one 64-byte total exchange at P ranks; with
// failStop, rank P/3 crashes in the middle of the injection overhead of one
// of its sends (found in a fault-free traced run), which records the recovery
// interval right before the send that crossed the fail time, though it starts
// after that send does — the out-of-order neighbours the iterator's reorder
// window repairs.
func runTotalExchange(t testing.TB, procs int, failStop bool, rec *trace.Recorder) *simnet.Result {
	t.Helper()
	s, err := barrier.StreamTotalExchange(procs, 64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := platform.XeonClusterMachine(procs)
	if err != nil {
		t.Fatal(err)
	}
	run := func(o simnet.Options) *simnet.Result {
		res, err := sched.RunSchedule(context.Background(), m.WithRunSeed(5), s, 1, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	o := simnet.DefaultOptions()
	if failStop {
		o.Recorder = trace.NewRecorder()
		span := run(o).MakeSpan
		clean, err := o.Recorder.Trace()
		if err != nil {
			t.Fatal(err)
		}
		var sends []trace.Event
		for _, ev := range clean.LaneEvents(procs / 3) {
			if ev.Kind == trace.KindSend {
				sends = append(sends, ev)
			}
		}
		mid := sends[len(sends)/2]
		o.Faults = &fault.Plan{FailStops: []fault.FailStop{{Rank: procs / 3, FailAt: (mid.T0 + mid.T1) / 2, Restart: span / 4}}}
	}
	o.Recorder = rec
	return run(o)
}

// runDisseminationConcurrent is runDissemination on the concurrent engine:
// one goroutine per rank, so lanes fill, and chunks reach the sink, in the
// order the scheduler runs the ranks.
func runDisseminationConcurrent(t testing.TB, procs int, seed int64, execs int, rec *trace.Recorder) *simnet.Result {
	t.Helper()
	s, err := barrier.StreamDissemination(procs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := platform.XeonClusterMachine(procs)
	if err != nil {
		t.Fatal(err)
	}
	o := simnet.DefaultOptions()
	o.Engine = simnet.EngineConcurrent
	o.Recorder = rec
	res, err := mpi.RunContext(context.Background(), m.WithRunSeed(seed), func(c *mpi.Comm) error {
		for range execs {
			barrier.Execute(c, s)
		}
		return nil
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

var chunkWorkloads = []chunkWorkload{
	{name: "dissemination", run: func(t testing.TB, procs int, rec *trace.Recorder) *simnet.Result {
		return runDissemination(t, procs, 11, 2, rec)
	}},
	{name: "dissemination-concurrent", run: func(t testing.TB, procs int, rec *trace.Recorder) *simnet.Result {
		return runDisseminationConcurrent(t, procs, 11, 2, rec)
	}},
	{name: "totalexchange-failstop", reordered: true, run: func(t testing.TB, procs int, rec *trace.Recorder) *simnet.Result {
		return runTotalExchange(t, procs, true, rec)
	}},
}

// spillOf records w at P ranks into an in-memory spill with the given chunk
// size (0: the default) and reopens it.
func spillOf(t testing.TB, w chunkWorkload, procs, chunkEvents int) (*trace.Spill, *simnet.Result) {
	t.Helper()
	var raw bytes.Buffer
	rec := trace.NewRecorder()
	rec.SpillTo(&raw, trace.SpillOptions{ChunkEvents: chunkEvents})
	res := w.run(t, procs, rec)
	if err := rec.SpillErr(); err != nil {
		t.Fatal(err)
	}
	sp, err := trace.OpenSpill(bytes.NewReader(raw.Bytes()), int64(raw.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return sp, res
}

// TestChunkingsMatchInRAM is the equivalence over chunkings: whatever the
// chunk size — one event per chunk puts a boundary under every backward step
// of the critical-path walk and between the two slots of the reorder window;
// 15, 16 and 17 put it just before, on and just after a 16-event staging
// block's — the analyses, the report and the merged event stream off the
// spill equal the in-RAM trace of the same run, on either engine. At
// P = 16,384 the staging depth is 1: no block, each event drains alone.
func TestChunkingsMatchInRAM(t *testing.T) {
	for _, w := range chunkWorkloads {
		for _, procs := range []int{16, 256, 16384} {
			switch {
			case procs == 16384 && (w.name != "dissemination" || testing.Short()):
				continue // P² messages, or P goroutines: the direct dissemination covers depth 1
			case procs == 256 && w.reordered && testing.Short():
				continue // P = 16 has the reordered neighbours too
			}
			t.Run(fmt.Sprintf("%s/p%d", w.name, procs), func(t *testing.T) {
				rec := trace.NewRecorder()
				res := w.run(t, procs, rec)
				tr, err := rec.Trace()
				if err != nil {
					t.Fatal(err)
				}
				if w.reordered != hasAdjacentInversion(tr) {
					t.Fatalf("lanes hold an out-of-order neighbour pair: %v, want %v", !w.reordered, w.reordered)
				}
				want := analysesOf(t, tr, procs == 16)
				if want.CP.End != res.MakeSpan {
					t.Fatalf("critical path ends at %v, makespan is %v", want.CP.End, res.MakeSpan)
				}
				chunkings := []int{1, 2, 7, 15, 16, 17, 64, 0}
				switch {
				case procs == 16384:
					if d := trace.StageDepth(procs); d != 1 {
						t.Fatalf("staging depth %d at P=%d, want 1: pick a larger P", d, procs)
					}
					chunkings = []int{0}
				case procs == 256 && testing.Short():
					chunkings = []int{7, 16, 17, 0} // odd, around a block, the default
				}
				for _, chunkEvents := range chunkings {
					sp, _ := spillOf(t, w, procs, chunkEvents)
					if chunkEvents > 0 && sp.NumChunks(0) != (sp.LaneLen(0)+chunkEvents-1)/chunkEvents {
						t.Fatalf("ChunkEvents %d: lane 0 has %d events in %d chunks", chunkEvents, sp.LaneLen(0), sp.NumChunks(0))
					}
					t.Logf("ChunkEvents %d: %d chunks in lane 0", chunkEvents, sp.NumChunks(0))
					assertAgree(t, want, analysesOf(t, sp, procs == 16))
				}
			})
		}
	}
}

// TestCriticalPathDecodesChunksNotLanes pins the cost of the walk off a
// spill: it decodes the chunk each hop lands in, plus the few predecessors a
// residency crosses into — not every chunk of every lane it visits, which is
// what a lane-granular reader costs (hops × chunks per lane).
func TestCriticalPathDecodesChunksNotLanes(t *testing.T) {
	const procs = 256
	w := chunkWorkload{name: "totalexchange", run: func(t testing.TB, procs int, rec *trace.Recorder) *simnet.Result {
		return runTotalExchange(t, procs, false, rec)
	}}
	sp, res := spillOf(t, w, procs, 64)
	perLane := 0
	for rank := 0; rank < procs; rank++ {
		perLane = max(perLane, sp.NumChunks(rank))
	}
	before := sp.ReadStats()
	cp, err := trace.CriticalPathOf(sp)
	if err != nil {
		t.Fatal(err)
	}
	if cp.End != res.MakeSpan {
		t.Fatalf("critical path ends at %v, makespan is %v", cp.End, res.MakeSpan)
	}
	st := sp.ReadStats()
	decoded := st.ChunksDecoded - before.ChunksDecoded
	t.Logf("%d hops, %d chunks per lane: %d chunks decoded (%d bytes), %d cache hits",
		len(cp.Hops), perLane, decoded, st.BytesRead-before.BytesRead, st.CacheHits-before.CacheHits)
	if perLane < 8 {
		t.Fatalf("only %d chunks per lane: the bound below would not tell chunks from lanes", perLane)
	}
	if limit := int64(len(cp.Hops) + perLane); decoded > limit {
		t.Fatalf("walk of %d hops decoded %d chunks, want at most %d", len(cp.Hops), decoded, limit)
	}
}
