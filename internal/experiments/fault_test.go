package experiments

import (
	"bytes"
	"context"
	"math"
	"testing"

	"hbsp/internal/barrier"
	"hbsp/internal/fault"
	"hbsp/internal/platform"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

func TestStragglerSeries(t *testing.T) {
	points, err := StragglerSeries(8, 4, []float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	if points[0].Inflation != 0 || points[0].Predicted != 0 {
		t.Errorf("factor 1 inflates: %+v", points[0])
	}
	for _, p := range points[1:] {
		if p.Inflation <= 0 {
			t.Errorf("factor %g: inflation %v not positive", p.Factor, p.Inflation)
		}
		// The first-order model is exact on the noise-free sync-bound
		// exchange; allow a generous margin anyway.
		if math.Abs(p.RelError) > 0.25 {
			t.Errorf("factor %g: rel error %v exceeds 25%%", p.Factor, p.RelError)
		}
	}
	if !(points[2].Inflation > points[1].Inflation) {
		t.Errorf("inflation not monotone in the slowdown factor: %+v", points)
	}
	if tbl := StragglerTable("t", points).String(); len(tbl) == 0 {
		t.Error("empty table")
	}
}

func TestRecoverySeries(t *testing.T) {
	points, err := RecoverySeries(8, 4, []float64{0, 0.4, 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		// On the fully synchronized noise-free workload, the makespan
		// inflation equals the checkpoint/restart penalty exactly.
		if math.Abs(p.Inflation-p.Predicted) > 1e-9*p.Predicted {
			t.Errorf("checkpoint %v: inflation %v != predicted %v", p.Checkpoint, p.Inflation, p.Predicted)
		}
	}
	// No checkpointing recomputes the whole prefix: the costliest point.
	if !(points[0].Predicted > points[1].Predicted && points[1].Predicted > points[2].Predicted) {
		t.Errorf("recovery cost not decreasing with tighter checkpoints: %+v", points)
	}
	if tbl := RecoveryTable("t", points).String(); len(tbl) == 0 {
		t.Error("empty table")
	}
}

// TestFaultSeriesDeterministic re-runs both fault series — each internally
// fanned out over ParallelSeries workers — and requires identical results:
// worker scheduling must not leak into any reported number.
func TestFaultSeriesDeterministic(t *testing.T) {
	s1, err := StragglerSeries(8, 4, []float64{1.5, 3, 6})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := StragglerSeries(8, 4, []float64{1.5, 3, 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Errorf("straggler point %d differs across runs: %+v vs %+v", i, s1[i], s2[i])
		}
	}
	r1, err := RecoverySeries(8, 4, []float64{0, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RecoverySeries(8, 4, []float64{0, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Errorf("recovery point %d differs across runs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}

// TestFaultTraceGolden pins end-to-end trace determinism under faults: the
// same machine seed and the same plan produce byte-identical merged event
// streams and Chrome exports across repeated runs, including runs racing each
// other inside ParallelSeries.
func TestFaultTraceGolden(t *testing.T) {
	runOnce := func() (times []float64, events, chrome []byte) {
		m, err := platform.Xeon8x2x4().Machine(16)
		if err != nil {
			t.Fatal(err)
		}
		m = m.WithRunSeed(21)
		s, err := barrier.Dissemination(16)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		o := simnet.DefaultOptions()
		o.Recorder = rec
		o.Faults = &fault.Plan{
			Seed:      4,
			Slowdowns: []fault.Slowdown{{Rank: 5, Factor: 2, Jitter: 0.3}},
			Links:     []fault.LinkRule{{Src: -1, Dst: 0, Class: -1, LatencyFactor: 2, BetaFactor: 2}},
			FailStops: []fault.FailStop{{Rank: 1, FailAt: 2e-5, Restart: 1e-4, Checkpoint: 7e-6}},
		}
		res, err := sched.RunSchedule(context.Background(), m, s, 2, o)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := rec.Trace()
		if err != nil {
			t.Fatal(err)
		}
		var ev, ch bytes.Buffer
		if err := trace.WriteEvents(&ev, tr); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteChrome(&ch, tr); err != nil {
			t.Fatal(err)
		}
		return res.Times, ev.Bytes(), ch.Bytes()
	}

	baseTimes, baseEvents, baseChrome := runOnce()
	if !bytes.Contains(baseChrome, []byte("fault")) {
		t.Error("Chrome export carries no fault marks")
	}

	type out struct {
		times  []float64
		events []byte
		chrome []byte
	}
	results, err := ParallelSeries(make([]int, 8), func(int) ([]out, error) {
		times, ev, ch := runOnce()
		return []out{{times, ev, ch}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		for k := range baseTimes {
			if r.times[k] != baseTimes[k] {
				t.Fatalf("run %d rank %d: %v != %v", i, k, r.times[k], baseTimes[k])
			}
		}
		if !bytes.Equal(r.events, baseEvents) {
			t.Errorf("run %d: merged event stream differs", i)
		}
		if !bytes.Equal(r.chrome, baseChrome) {
			t.Errorf("run %d: Chrome export differs", i)
		}
	}
}
