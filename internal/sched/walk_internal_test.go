package sched

import (
	"context"
	"runtime"
	"testing"

	"hbsp/internal/platform"
	"hbsp/internal/trace"
)

// TestSharedWalkWidth pins who walks, so that the bit-identity grid of
// TestSharedPerRankWalk compares split walks and not the one-worker walk with
// itself: under GOMAXPROCS 2 an unrecorded walk at P=1,024 splits its
// 1,024-edge stages across two workers, while P=1,023 and a recorded run stay
// on one.
func TestSharedWalkWidth(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, c := range []struct {
		p       int
		traced  bool
		workers int32
	}{{1024, false, 2}, {1023, false, 1}, {1024, true, 1}} {
		m, err := platform.XeonClusterMachine(c.p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewCirculant(c.p, []int{1, 2, 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		opt := SweepOptions{AckSends: true}
		if c.traced {
			opt.Recorder = trace.NewRecorder()
		}
		sw, err := NewSweepEvaluator(m, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sw.Run(context.Background(), nil, s, 1); err != nil {
			t.Fatal(err)
		}
		if w := &sw.e.walk; w.workers != c.workers || w.active != int(c.workers) {
			t.Errorf("P=%d traced=%v: %d workers, %d engaged by the last stage; want %d", c.p, c.traced, w.workers, w.active, c.workers)
		}
		sw.Release()
	}
}
