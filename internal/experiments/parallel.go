package experiments

import (
	"runtime"
	"sync"
)

// The sweep engine: every experiment series is a list of independent
// simulation points (one process count, one fraction, one problem size, ...),
// and each point spins up its own simulated world, so points parallelize
// trivially. RunPoints executes them on a worker pool bounded by GOMAXPROCS
// and returns the results in index order, which keeps every series
// deterministic: the output is identical to the sequential loop it replaced,
// only the wall clock shrinks by roughly the core count.

// RunPoints evaluates fn(0..n-1) on min(n, GOMAXPROCS) workers and returns
// the n results in index order. If any points fail, the error of the
// lowest-indexed failing point is returned (a deterministic choice — the
// sequential loop would have surfaced that one first); the remaining points
// still run to completion so partial failures cannot leave goroutines behind.
// It is RunPointsWith without worker state.
func RunPoints[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return RunPointsWith(n, func() (struct{}, error) { return struct{}{}, nil }, nil,
		func(_ struct{}, i int) (T, error) { return fn(i) })
}

// RunPointsWith is RunPoints with per-worker state: make builds one W per
// worker (a sweep evaluator, a scratch arena, ...), every point evaluated by
// that worker receives it, and close — when non-nil — releases it after the
// worker drains. Results stay in index order and the lowest-indexed error
// wins, exactly as RunPoints; which worker evaluates which point is
// scheduling-dependent, so W must never influence a point's result (the
// sweep evaluator's bit-identity contract).
func RunPointsWith[W, T any](n int, mk func() (W, error), cl func(W), fn func(w W, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]T, n)
	errs := make([]error, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	worker := func(claim func() int) error {
		w, err := mk()
		if err != nil {
			return err
		}
		if cl != nil {
			defer cl(w)
		}
		for {
			i := claim()
			if i >= n {
				return nil
			}
			results[i], errs[i] = fn(w, i)
		}
	}
	if workers <= 1 {
		var next int
		if err := worker(func() int { next++; return next - 1 }); err != nil {
			return nil, err
		}
	} else {
		var next int
		var mu sync.Mutex
		claim := func() int {
			mu.Lock()
			i := next
			next++
			mu.Unlock()
			return i
		}
		mkErrs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				mkErrs[slot] = worker(claim)
			}(w)
		}
		wg.Wait()
		for _, err := range mkErrs {
			if err != nil {
				return nil, err
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// ParallelSeries maps fn over the points of a sweep in parallel and flattens
// the per-point row slices in sweep order. It is the shape every experiment
// series has: an outer loop over independent points, each contributing zero or
// more rows to the figure.
func ParallelSeries[P, T any](points []P, fn func(p P) ([]T, error)) ([]T, error) {
	perPoint, err := RunPoints(len(points), func(i int) ([]T, error) {
		return fn(points[i])
	})
	if err != nil {
		return nil, err
	}
	var out []T
	for _, rows := range perPoint {
		out = append(out, rows...)
	}
	return out, nil
}
