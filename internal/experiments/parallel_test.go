package experiments

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"hbsp/internal/platform"
)

func TestSharedRunPointsOrderAndCompleteness(t *testing.T) {
	const n = 100
	var calls atomic.Int64
	out, err := RunPoints(n, func(i int) (int, error) {
		calls.Add(1)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n || calls.Load() != n {
		t.Fatalf("len=%d calls=%d, want %d", len(out), calls.Load(), n)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, results out of order", i, v)
		}
	}
}

func TestSharedRunPointsReturnsLowestIndexedError(t *testing.T) {
	errLow := errors.New("low")
	_, err := RunPoints(16, func(i int) (int, error) {
		if i == 3 {
			return 0, errLow
		}
		if i == 11 {
			return 0, errors.New("high")
		}
		return i, nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("err = %v, want the lowest-indexed point's error", err)
	}
}

func TestRunPointsEmpty(t *testing.T) {
	out, err := RunPoints(0, func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("empty sweep: out=%v err=%v", out, err)
	}
}

func TestSharedRunPointsWithWorkerLifecycle(t *testing.T) {
	const n = 64
	var made, closed, calls atomic.Int64
	out, err := RunPointsWith(n,
		func() (*atomic.Int64, error) {
			made.Add(1)
			return new(atomic.Int64), nil
		},
		func(w *atomic.Int64) { closed.Add(1) },
		func(w *atomic.Int64, i int) (int, error) {
			w.Add(1)
			calls.Add(1)
			return i * 3, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n || calls.Load() != n {
		t.Fatalf("len=%d calls=%d, want %d", len(out), calls.Load(), n)
	}
	for i, v := range out {
		if v != i*3 {
			t.Fatalf("out[%d] = %d, results out of order", i, v)
		}
	}
	if made.Load() != closed.Load() || made.Load() < 1 {
		t.Fatalf("made %d workers, closed %d — every make needs a matching close", made.Load(), closed.Load())
	}
}

func TestSharedRunPointsWithMakeError(t *testing.T) {
	errMake := errors.New("no evaluator")
	_, err := RunPointsWith(8,
		func() (int, error) { return 0, errMake },
		nil,
		func(w, i int) (int, error) { return i, nil })
	if !errors.Is(err, errMake) {
		t.Fatalf("err = %v, want the worker construction error", err)
	}
}

func TestSharedParallelSeriesFlattensInSweepOrder(t *testing.T) {
	points := []int{3, 1, 0, 2}
	out, err := ParallelSeries(points, func(p int) ([]string, error) {
		rows := make([]string, p)
		for k := range rows {
			rows[k] = fmt.Sprintf("%d/%d", p, k)
		}
		return rows, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"3/0", "3/1", "3/2", "1/0", "2/0", "2/1"}
	if len(out) != len(want) {
		t.Fatalf("len = %d, want %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d] = %q, want %q (flattening not in sweep order)", i, out[i], want[i])
		}
	}
}

// TestSeriesDeterministicUnderParallelism runs a real sweep twice and demands
// identical output: the engine must not let goroutine scheduling leak into
// results.
func TestSeriesDeterministicUnderParallelism(t *testing.T) {
	run := func() []SyncPoint {
		t.Helper()
		ResetParamsCache()
		pts, err := Fig6_3Series(platform.Xeon8x2x4(), 16, Quick())
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d differs between runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
