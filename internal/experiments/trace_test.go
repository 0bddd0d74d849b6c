package experiments

import (
	"bytes"
	"testing"

	"hbsp/internal/bsp"
	"hbsp/internal/platform"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

// tracedStream runs the shared sync workload with a private recorder and
// returns the rendered merged event stream.
func tracedStream(t *testing.T, procs int, seed int64) string {
	t.Helper()
	m, err := platform.Xeon8x2x4().Machine(procs)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	o := simnet.DefaultOptions()
	o.Recorder = rec
	if _, err := bsp.Run(m.WithRunSeed(seed), SyncExchangeProgram, o); err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteEvents(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSharedTracedRunsDeterministicUnderParallelSweep is the determinism
// contract of the recorder under the sweep engine: many traced runs executing
// concurrently on the worker pool (each with its own recorder) must every one
// reproduce the sequential reference stream for its seed, byte for byte. Run
// under -race (CI's ^TestShared step) this also proves the per-rank lanes are
// race-free against the pool's concurrency.
func TestSharedTracedRunsDeterministicUnderParallelSweep(t *testing.T) {
	const procs = 16
	seeds := []int64{1, 2, 3, 4, 1, 2, 3, 4} // repeats: same seed traced twice in parallel
	want := map[int64]string{}
	for _, s := range seeds[:4] {
		want[s] = tracedStream(t, procs, s)
	}
	streams, err := RunPoints(len(seeds), func(i int) (string, error) {
		return tracedStream(t, procs, seeds[i]), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range streams {
		if got != want[seeds[i]] {
			t.Fatalf("parallel traced run %d (seed %d) diverged from the sequential reference stream", i, seeds[i])
		}
	}
	if want[1] == want[2] {
		t.Fatal("different seeds produced identical streams — the comparison is vacuous")
	}
}

// TestTraceBreakdownSeries sanity-checks the Fig 5.6 explainer: points come
// back in sweep order with a critical path accounting that reaches the
// makespan, and the consecutive sweep exposes cross-node gating hops.
func TestTraceBreakdownSeries(t *testing.T) {
	procsList := ConsecutiveProcs(14, 18)
	points, err := TraceBreakdownSeries(platform.Xeon8x2x4(), procsList, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(procsList) {
		t.Fatalf("got %d points, want %d", len(points), len(procsList))
	}
	crossSeen := false
	for i, pt := range points {
		if pt.Procs != procsList[i] {
			t.Fatalf("point %d is P=%d, want sweep order %d", i, pt.Procs, procsList[i])
		}
		if pt.MakeSpan <= 0 || pt.PathHops == 0 {
			t.Fatalf("point %d has empty analysis: %+v", i, pt)
		}
		if pt.CrossNodeHops > 0 {
			crossSeen = true
		}
		if pt.CrossNodeHops > pt.PathHops {
			t.Fatalf("point %d counts more cross-node hops than hops: %+v", i, pt)
		}
	}
	if !crossSeen {
		t.Fatal("no point shows cross-node gating hops; the placement explanation is empty")
	}
}

func TestConsecutiveProcs(t *testing.T) {
	if got := ConsecutiveProcs(0, 3); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("ConsecutiveProcs(0,3) = %v", got)
	}
	if got := ConsecutiveProcs(5, 4); len(got) != 1 || got[0] != 5 {
		t.Fatalf("ConsecutiveProcs(5,4) = %v", got)
	}
}
