package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestConcurrentMixedWorkloads hammers one server with many goroutines
// running a mix of workload kinds, sizes and engines concurrently. Under
// -race (the CI test job runs the full suite with -race) this pins the
// concurrent safety of every piece of shared state on the request path: the
// server's schedule cache and the immutable schedules it shares between runs,
// the default bsp schedule source, the sched evaluator pool and its per-evaluator partition caches, the machine
// and result LRUs, the singleflight group and the limiter. Responses must
// also stay deterministic: every occurrence of the same request body across
// all goroutines must produce byte-identical payloads.
func TestConcurrentMixedWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test")
	}
	s := New(Config{MaxConcurrent: 8, MaxQueue: 64})
	ts := httptest.NewServer(s)
	defer ts.Close()

	bodies := []string{
		`{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"barrier"},"procs":16}`,
		`{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"barrier","variant":"tree"},"procs":16}`,
		`{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"allreduce","bytes":64},"procs":16}`,
		`{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"allgather","bytes":32},"procs":16}`,
		`{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"totalexchange","bytes":16},"procs":8}`,
		`{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"broadcast","bytes":128},"procs":16}`,
		`{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"sync"},"procs":16}`,
		`{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"sync","variant":"schedule"},"procs":16}`,
		`{"profile":{"preset":"flat-cluster"},"workload":{"kind":"allreduce","bytes":8},"procs":32}`,
		`{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"stencil","grid":32,"iterations":1},"procs":16}`,
		`{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"allreduce","bytes":64},"procs":16,"options":{"engine":"concurrent"}}`,
		`{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"sync"},"procs":16,"options":{"trace":true}}`,
	}

	const workers = 16
	const iters = 6
	var mu sync.Mutex
	seen := map[string][]byte{} // body -> first response payload
	var wg sync.WaitGroup
	errCh := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				body := bodies[(w+it)%len(bodies)]
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", newReader(body))
				if err != nil {
					errCh <- err
					return
				}
				data, err := readAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				if resp.StatusCode != 200 {
					errCh <- fmt.Errorf("status %d for %s: %s", resp.StatusCode, body, data)
					return
				}
				mu.Lock()
				if prev, ok := seen[body]; !ok {
					seen[body] = data
				} else if string(prev) != string(data) {
					mu.Unlock()
					errCh <- fmt.Errorf("nondeterministic payload for %s:\nfirst: %s\n  now: %s", body, prev, data)
					return
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if s.Metrics().Errors.Internal != 0 {
		t.Fatalf("internal errors under concurrency: %+v", s.Metrics())
	}
}
