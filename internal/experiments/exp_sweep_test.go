package experiments

import (
	"context"
	"testing"

	"hbsp/internal/barrier"
	"hbsp/internal/platform"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
)

// TestSharedBytesSweepSeriesMatchesIndependentRuns demands the incremental
// series be bit-identical to the sequential loop of independent RunSchedule
// calls it replaces — the sweep evaluator's reuse must be unobservable in the
// results, whichever RunPointsWith worker evaluates a point.
func TestSharedBytesSweepSeriesMatchesIndependentRuns(t *testing.T) {
	const procs = 32
	payloads := []int{0, 16, 64, 64, 256, 1024, 64}
	prof := platform.Xeon8x2x4()
	pts, err := BytesSweepSeries(prof, procs, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(payloads) {
		t.Fatalf("got %d points, want %d", len(pts), len(payloads))
	}
	m, err := prof.Machine(procs)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range payloads {
		s, err := barrier.TotalExchange(procs, b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sched.RunSchedule(context.Background(), m, s, 1, simnet.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		got := pts[i]
		if got.MakeSpan != want.MakeSpan || got.Messages != want.Messages || got.Bytes != want.Bytes {
			t.Fatalf("point %d (payload %d): got {%v %d %d}, want {%v %d %d}",
				i, b, got.MakeSpan, got.Messages, got.Bytes, want.MakeSpan, want.Messages, want.Bytes)
		}
		if got.Procs != procs || got.Payload != b || got.Scale != 1 {
			t.Fatalf("point %d metadata: %+v", i, got)
		}
	}
}

func TestSharedScaleSweepSeriesMatchesIndependentRuns(t *testing.T) {
	const procs, payload = 32, 64
	scales := []float64{1, 0.5, 2, 1.25, 1}
	prof := platform.Xeon8x2x4()
	pts, err := ScaleSweepSeries(prof, procs, payload, scales)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(scales) {
		t.Fatalf("got %d points, want %d", len(pts), len(scales))
	}
	s, err := barrier.TotalExchange(procs, payload)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range scales {
		m, err := prof.Scaled(f, f, f, f).Machine(procs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sched.RunSchedule(context.Background(), m, s, 1, simnet.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		got := pts[i]
		if got.MakeSpan != want.MakeSpan || got.Messages != want.Messages || got.Bytes != want.Bytes {
			t.Fatalf("point %d (scale %g): got {%v %d %d}, want {%v %d %d}",
				i, f, got.MakeSpan, got.Messages, got.Bytes, want.MakeSpan, want.Messages, want.Bytes)
		}
	}
}
