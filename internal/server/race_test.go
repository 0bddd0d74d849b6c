package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"hbsp/internal/platform"
	"hbsp/sim"
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

// TestUploadsDoNotAliasTheBody pins that a cached uploaded machine owns its
// numbers. Request bodies are read into pooled buffers that the next request
// overwrites, so a Matrix that kept a view into its body would change under
// the machine cache: two different uploads back to back, then two at once,
// through one Server — and the first machine, fetched from the cache, still
// hashes to its fingerprint and still prices a pair as uploaded. Under -race
// a handler writing a recycled buffer that a cached machine still read would
// be reported as well.
func TestUploadsDoNotAliasTheBody(t *testing.T) {
	const p = 24
	s, ts := newTestServer(t, Config{})
	body := func(k int) string { // upload k: every element carries k
		spec := asymmetricUpload(t, p)
		spec.SelfOverhead = float64(k) * 1e-7
		rows := make([][]float64, p)
		for i := range rows {
			rows[i] = make([]float64, p)
			for j := range rows[i] {
				if i != j {
					rows[i][j] = float64(1000*k+i*p+j) * 1e-9
				}
			}
		}
		spec.Latency = matrixOf(t, rows)
		data, err := json.Marshal(PredictRequest{Profile: ProfileSpec{Matrices: spec}, Workload: WorkloadSpec{Kind: "allreduce"}, Procs: p})
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	post := func(k int) string {
		resp, data := predict(t, ts, body(k))
		var pt PredictPoint
		if err := json.Unmarshal(data, &pt); err != nil || resp.StatusCode != 200 {
			t.Errorf("upload %d: status %d, %v in %s", k, resp.StatusCode, err, data)
		}
		return pt.ProfileFingerprint
	}

	first := post(1)
	post(2)
	var wg sync.WaitGroup
	for k := 3; k <= 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			post(k)
		}(k)
	}
	wg.Wait()

	cached, ok := s.machines.Get(fmt.Sprintf("machine/%s/p%d", first, p))
	if !ok {
		t.Fatalf("the first upload's machine is not cached")
	}
	m := cached.(*resolvedProfile).machine.(*matrixMachine)
	if got := m.fingerprint(); got != first {
		t.Errorf("the cached machine now hashes to %s, was uploaded as %s", got, first)
	}
	if lat, _, _, _, ret, _ := m.Pair(2, 5); lat != float64(1000+2*p+5)*1e-9 || ret != float64(1000+5*p+2)*1e-9 {
		t.Errorf("cached machine: Pair(2,5) latency %v, return %v — not what upload 1 carried", lat, ret)
	}
}

// TestSharedMachinePricing holds the machines to the concurrency contract of
// simnet.Machine and simnet.PairPricer that a split per-rank walk relies on:
// Pair and Noise may be called from several goroutines at once and answer as
// pure functions of their arguments. Four goroutines price every ordered pair
// and draw noise, each in an order of its own, on a noisy platform machine,
// on its copy reading draws through a platform.Draws memo that they fill
// between them, and on an uploaded-matrix machine; every answer must be the
// one a single goroutine gets from the machine without a memo. Run it under
// -race.
func TestSharedMachinePricing(t *testing.T) {
	const p, seqs, workers = 48, 64, 4
	noisy, err := platform.Xeon8x2x4().Machine(p)
	if err != nil {
		t.Fatal(err)
	}
	upload, err := New(Config{}).resolveMatrices(asymmetricUpload(t, p), p)
	if err != nil {
		t.Fatal(err)
	}
	type pricer interface {
		sim.Machine
		Pair(i, j int) (lat, gap, beta, ovh, ret float64, sameNIC bool)
	}
	type answer struct {
		lat, gap, beta, ovh, ret, noise float64
		sameNIC                         bool
	}
	// answerOf is pair k's price and the draw seqs index: rank k/p, seq k%seqs.
	answerOf := func(m pricer, k int) answer {
		var a answer
		a.lat, a.gap, a.beta, a.ovh, a.ret, a.sameNIC = m.Pair(k/p, k%p)
		a.noise = m.Noise(k/p, uint64(k%seqs))
		return a
	}
	for name, m := range map[string]pricer{
		"platform":           noisy,
		"platform via Draws": noisy.WithDraws(platform.NewDraws(noisy.RunSeed(), p)),
		"uploaded matrices":  upload.machine.(*matrixMachine),
	} {
		reference := m
		if name == "platform via Draws" {
			reference = noisy
		}
		want := make([]answer, p*p)
		for k := range want {
			want[k] = answerOf(reference, k)
		}
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(stride int) {
				defer wg.Done()
				for i := range want { // stride is odd and prime to 3, so this visits every pair of p·p = 2^8·9
					if k := i * stride % len(want); answerOf(m, k) != want[k] {
						t.Errorf("%s: pair %d→%d, draw %d answers %+v concurrently, %+v alone", name, k/p, k%p, k%seqs, answerOf(m, k), want[k])
						return
					}
				}
			}([]int{1, 5, 7, 11}[g])
		}
		wg.Wait()
	}
}
