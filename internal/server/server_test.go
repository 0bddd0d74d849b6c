package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// golden diffs got against testdata/name, rewriting under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/server -run %s -update`): %v", t.Name(), err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("output diverged from %s — inspect the diff and, if the change is intended, regenerate with -update\ngot:\n%s", path, got)
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func predict(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestPredictGolden pins the determinism contract of the API: identical
// request bodies produce byte-identical prediction payloads — across cold
// evaluation, cache hits, and server restarts (the golden file).
func TestPredictGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"barrier"},"procs":16}`

	resp, cold := predict(t, ts, body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, cold)
	}
	if got := resp.Header.Get("X-Hbspd-Cache"); got != "miss" {
		t.Fatalf("first request X-Hbspd-Cache = %q, want miss", got)
	}
	resp2, warm := predict(t, ts, body)
	if got := resp2.Header.Get("X-Hbspd-Cache"); got != "hit" {
		t.Fatalf("second request X-Hbspd-Cache = %q, want hit", got)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cache hit not byte-identical to the evaluation:\ncold: %s\nwarm: %s", cold, warm)
	}
	golden(t, "predict_barrier_p16.golden", cold)
}

// TestPredictSweepGolden pins a full NDJSON sweep stream (procs × bytes,
// row-major order).
func TestPredictSweepGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"allreduce"},"sweep":{"procs":[4,8],"bytes":[8,64]}}`
	resp, data := predict(t, ts, body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	if n := resp.Header.Get("X-Hbspd-Points"); n != "4" {
		t.Fatalf("X-Hbspd-Points = %q, want 4", n)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), data)
	}
	var prev []struct{ Procs, Bytes int }
	for _, line := range lines {
		var p struct{ Procs, Bytes int }
		if err := json.Unmarshal(line, &p); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		prev = append(prev, p)
	}
	want := []struct{ Procs, Bytes int }{{4, 8}, {4, 64}, {8, 8}, {8, 64}}
	for i, w := range want {
		if prev[i] != w {
			t.Fatalf("line %d is P=%d bytes=%d, want P=%d bytes=%d (row-major order)", i, prev[i].Procs, prev[i].Bytes, w.Procs, w.Bytes)
		}
	}
	golden(t, "predict_allreduce_sweep.golden", data)
}

// TestEnginesAgree cross-checks the API against the engine-equivalence
// invariant: the direct and concurrent engines must report bit-identical
// virtual times through the server too.
func TestEnginesAgree(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	shape := `{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"totalexchange","bytes":64},"procs":8,"options":{"engine":%q,"perRank":true}}`
	extract := func(data []byte) (float64, []float64) {
		var p PredictPoint
		if err := json.Unmarshal(data, &p); err != nil {
			t.Fatalf("%v in %s", err, data)
		}
		return p.MakeSpan, p.PerRank
	}
	_, auto := predict(t, ts, fmt.Sprintf(shape, "auto"))
	_, conc := predict(t, ts, fmt.Sprintf(shape, "concurrent"))
	am, at := extract(auto)
	cm, ct := extract(conc)
	if am != cm {
		t.Fatalf("makespan differs across engines: auto %v, concurrent %v", am, cm)
	}
	for i := range at {
		if at[i] != ct[i] {
			t.Fatalf("rank %d time differs across engines: %v vs %v", i, at[i], ct[i])
		}
	}
}

// TestErrorShapes walks the documented error mapping: every failure mode
// returns the {"error":{code,status,message}} shape with the right code and
// HTTP status.
func TestErrorShapes(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	type errorCase struct {
		name, body, code string
		status           int
		// message, when set, is the exact error text: every route words a
		// refusal alike.
		message string
	}
	cases := []errorCase{
		{
			name:   "unknown preset",
			body:   `{"profile":{"preset":"nope"},"workload":{"kind":"barrier"},"procs":8}`,
			code:   "invalid_request",
			status: 400,
		},
		{
			name: "invalid custom profile",
			body: `{"profile":{"custom":{"name":"broken","topology":{"nodes":0,"socketsPerNode":2,"coresPerSocket":4},
				"links":{"node":{"latency":1e-6,"gap":1e-8,"beta":1e-9,"overhead":1e-7}},"selfOverhead":1e-7}},
				"workload":{"kind":"barrier"},"procs":8}`,
			code:   "invalid_machine",
			status: 400,
		},
		{
			name:   "invalid matrix upload",
			body:   `{"profile":{"matrices":{"latency":[[0,1e-6]],"beta":[[0,1e-9],[1e-9,0]],"selfOverhead":1e-7}},"workload":{"kind":"barrier"},"procs":2}`,
			code:   "invalid_machine",
			status: 400,
		},
		{
			name:    "invalid fault plan",
			body:    `{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"barrier"},"procs":8,"faults":{"Slowdowns":[{"Rank":64,"Factor":2}]}}`,
			code:    "invalid_fault",
			status:  400,
			message: "hbsp: invalid fault plan: slowdown 0: rank 64 out of range [0,8)",
		},
		{
			name:   "budget exceeded",
			body:   `{"profile":{"preset":"xeon-cluster"},"workload":{"kind":"sync","supersteps":500},"procs":256,"seed":99,"options":{"budgetMs":1}}`,
			code:   "deadline",
			status: 408,
		},
		{
			name:   "unknown workload",
			body:   `{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"quicksort"},"procs":8}`,
			code:   "invalid_request",
			status: 400,
		},
		{
			name:   "program rank mismatch",
			body:   `{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"program","ranks":[[{"op":"compute","seconds":1}]]},"procs":8}`,
			code:   "invalid_request",
			status: 400,
		},
		{
			name:    "procs beyond the ceiling",
			body:    `{"profile":{"preset":"flat-cluster"},"workload":{"kind":"barrier"},"procs":3000000000}`,
			code:    "invalid_request",
			status:  400,
			message: "server: invalid request: procs must be <= 1048576, got 3000000000",
		},
		{
			name:    "sweep procs beyond the ceiling",
			body:    `{"profile":{"preset":"flat-cluster"},"workload":{"kind":"barrier"},"sweep":{"procs":[8,1048577]}}`,
			code:    "invalid_request",
			status:  400,
			message: "server: invalid request: sweep.procs entries must be <= 1048576, got 1048577",
		},
		{
			name: "sweep beyond the point ceiling",
			body: `{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"allreduce"},"procs":8,"sweep":{"bytes":[` +
				strings.Repeat("8,", 64) + `8],"scale":[` + strings.Repeat("{},", 63) + `{}]}}`,
			code:    "invalid_request",
			status:  400,
			message: "server: invalid request: sweep has more than 4096 points (1 procs × 65 bytes × 64 scale entries)",
		},
		{
			// Refused before anything is sized from procs, in the same words
			// on every route.
			name:    "impossible stencil decomposition",
			body:    `{"profile":{"preset":"xeon-cluster"},"workload":{"kind":"stencil","grid":3},"procs":64}`,
			code:    "invalid_request",
			status:  400,
			message: "server: invalid request: stencil: cannot give every one of 64 processes at least one row of a 3-point axis",
		},
		{
			name:    "impossible stencil decomposition, concurrent engine",
			body:    `{"profile":{"preset":"xeon-cluster"},"workload":{"kind":"stencil","grid":3},"procs":64,"options":{"engine":"concurrent"}}`,
			code:    "invalid_request",
			status:  400,
			message: "server: invalid request: stencil: cannot give every one of 64 processes at least one row of a 3-point axis",
		},
		{
			name:    "impossible stencil decomposition, uploaded machine",
			body:    `{"profile":{"matrices":{"latency":[[0,1e-6],[1e-6,0]],"beta":[[0,1e-9],[1e-9,0]],"selfOverhead":1e-7}},"workload":{"kind":"stencil","grid":3},"procs":64}`,
			code:    "invalid_request",
			status:  400,
			message: "server: invalid request: stencil: cannot give every one of 64 processes at least one row of a 3-point axis",
		},
		{
			name:   "seed on matrix machine",
			body:   `{"profile":{"matrices":{"latency":[[0,1e-6],[1e-6,0]],"beta":[[0,1e-9],[1e-9,0]],"selfOverhead":1e-7}},"workload":{"kind":"barrier"},"procs":2,"seed":3}`,
			code:   "invalid_request",
			status: 400,
		},
	}
	// What an uploaded machine cannot run is refused in one wording on
	// either engine, naming no Go type.
	const upload = `{"matrices":{"latency":[[0,1e-6],[1e-6,0]],"beta":[[0,1e-9],[1e-9,0]],"selfOverhead":1e-7}}`
	for _, engine := range []string{"auto", "concurrent"} {
		options := `"options":{"engine":"` + engine + `"}`
		cases = append(cases, errorCase{
			name: "class-matched link rule on an upload, engine " + engine,
			body: `{"profile":` + upload + `,"workload":{"kind":"barrier"},"procs":2,` + options +
				`,"faults":{"Links":[{"Src":-1,"Dst":-1,"Class":2,"LatencyFactor":3,"BetaFactor":2}]}}`,
			code:    "invalid_fault",
			status:  400,
			message: "hbsp: invalid fault plan: link rule matches distance class 2 but the machine does not expose pair classes",
		})
		for _, kind := range []string{"sync", "stencil"} {
			cases = append(cases, errorCase{
				name:    kind + " on an upload, engine " + engine,
				body:    `{"profile":` + upload + `,"workload":{"kind":"` + kind + `"},"procs":2,` + options + `}`,
				code:    "invalid_machine",
				status:  400,
				message: "hbsp: invalid machine: the " + kind + " workload needs a kernel-rate model, which uploaded matrices do not carry",
			})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := predict(t, ts, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("HTTP status %d, want %d (%s)", resp.StatusCode, tc.status, data)
			}
			var e apiError
			if err := json.Unmarshal(data, &e); err != nil {
				t.Fatalf("error body is not the documented shape: %v in %s", err, data)
			}
			if e.Err.Code != tc.code {
				t.Fatalf("code %q, want %q (message: %s)", e.Err.Code, tc.code, e.Err.Message)
			}
			if e.Err.Status != tc.status {
				t.Fatalf("body status %d, want %d", e.Err.Status, tc.status)
			}
			if e.Err.Message == "" || tc.message != "" && e.Err.Message != tc.message {
				t.Fatalf("error message %q, want %q (or any non-empty text)", e.Err.Message, tc.message)
			}
		})
	}
	// Every refusal is counted under its code — the ceilings under
	// errors.invalidRequest with the other malformed requests.
	want := map[string]int64{}
	for _, tc := range cases {
		want[tc.code]++
	}
	if got := s.Metrics().Errors; got.InvalidRequest != want["invalid_request"] || got.InvalidMachine != want["invalid_machine"] ||
		got.InvalidFault != want["invalid_fault"] || got.Deadline != want["deadline"] || got.Internal != 0 {
		t.Errorf("/metrics errors %+v, want one per case: %v", got, want)
	}
}

// TestShedding saturates a 1-slot, 0-queue server with distinct slow
// requests and requires 429 + Retry-After for the overflow, plus the shed
// counter.
func TestShedding(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 0})
	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	retryAfter := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"profile":{"preset":"xeon-cluster"},"workload":{"kind":"sync","supersteps":400},"procs":128,"seed":%d}`, 100+i)
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()
	shed := 0
	for i, c := range codes {
		if c == http.StatusTooManyRequests {
			shed++
			if retryAfter[i] == "" {
				t.Fatal("shed response missing Retry-After")
			}
		}
	}
	if shed == 0 {
		t.Fatal("no requests were shed at MaxConcurrent=1, MaxQueue=0 under 8 concurrent distinct requests")
	}
	if got := s.Metrics().Shed; got != int64(shed) {
		t.Fatalf("shed counter %d, want %d", got, shed)
	}
}

// TestClientDisconnectMidStream cancels a sweep client-side and requires the
// server to tear the evaluation down as aborted. The sweep is a second of
// direct superstep walking (it was sized for the session's rank goroutines
// before the sync workload left them), so the hang-up lands inside a point and
// it is the walk's per-superstep poll that ends it.
func TestClientDisconnectMidStream(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	body := `{"profile":{"preset":"xeon-cluster"},"workload":{"kind":"sync","supersteps":1000},"seed":5,"sweep":{"procs":[64,128,192,256,320,384,448,512]}}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/predict", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one streamed line, then hang up mid-sweep.
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("reading first byte of the stream: %v", err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s.Metrics().Errors.Aborted > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("aborted counter still zero after disconnect; metrics: %+v", s.Metrics())
}

// TestDrain verifies graceful-drain semantics: health flips to 503 and new
// predictions are shed while in-flight state is preserved.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz %d before drain, want 200", resp.StatusCode)
	}
	s.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz %d while draining, want 503", resp.StatusCode)
	}
	r2, data := predict(t, ts, `{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"barrier"},"procs":8}`)
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("predict while draining: %d (%s), want 429", r2.StatusCode, data)
	}
	var e apiError
	if err := json.Unmarshal(data, &e); err != nil || e.Err.Code != "shed" {
		t.Fatalf("drain shed body %s", data)
	}
}

// TestMetricsCounters spot-checks the /metrics shape and the cache counters.
func TestMetricsCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"broadcast","bytes":32},"procs":8}`
	predict(t, ts, body)
	predict(t, ts, body)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests != 2 || snap.Points != 2 {
		t.Fatalf("requests=%d points=%d, want 2/2", snap.Requests, snap.Points)
	}
	if snap.CacheMisses != 1 || snap.CacheHits != 1 {
		t.Fatalf("misses=%d hits=%d, want 1/1", snap.CacheMisses, snap.CacheHits)
	}
	if snap.Eval.Count != 1 || snap.Eval.SumNs <= 0 {
		t.Fatalf("eval count=%d sum=%d, want one observed evaluation", snap.Eval.Count, snap.Eval.SumNs)
	}
	var bucketTotal int64
	for _, b := range snap.Eval.Buckets {
		bucketTotal += b
	}
	if bucketTotal != snap.Eval.Count {
		t.Fatalf("histogram buckets sum to %d, count is %d", bucketTotal, snap.Eval.Count)
	}
}

// TestScaleSweepInvalidation verifies that LogGP scalings change the profile
// fingerprint (so scaled points never alias unscaled cache entries) and
// slow the prediction monotonically.
func TestScaleSweepInvalidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"barrier"},"procs":16,"sweep":{"scale":[{"latency":1},{"latency":8}]}}`
	resp, data := predict(t, ts, body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d", len(lines))
	}
	var a, b PredictPoint
	if err := json.Unmarshal(lines[0], &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(lines[1], &b); err != nil {
		t.Fatal(err)
	}
	if a.ProfileFingerprint == b.ProfileFingerprint {
		t.Fatal("scaled point shares the unscaled profile fingerprint")
	}
	if b.MakeSpan <= a.MakeSpan {
		t.Fatalf("8x latency makespan %v not above baseline %v", b.MakeSpan, a.MakeSpan)
	}
	if b.Scale == nil || b.Scale.Latency != 8 {
		t.Fatalf("scaled point does not echo its scaling: %+v", b.Scale)
	}
}

// TestFaultPlanKeyed verifies fault plans enter the cache key: same request
// with and without a plan must not share a result, and the fault fingerprint
// is echoed.
func TestFaultPlanKeyed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	plain := `{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"sync"},"procs":16}`
	faulty := `{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"sync"},"procs":16,"faults":{"Slowdowns":[{"Rank":3,"Factor":8,"End":1}]}}`
	_, a := predict(t, ts, plain)
	resp, b := predict(t, ts, faulty)
	if resp.StatusCode != 200 {
		t.Fatalf("faulty run failed: %s", b)
	}
	var pa, pb PredictPoint
	if err := json.Unmarshal(a, &pa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &pb); err != nil {
		t.Fatal(err)
	}
	if pa.FaultFingerprint != "" {
		t.Fatalf("fault-free point carries fault fingerprint %q", pa.FaultFingerprint)
	}
	if pb.FaultFingerprint == "" {
		t.Fatal("faulty point missing fault fingerprint")
	}
	if pb.MakeSpan <= pa.MakeSpan {
		t.Fatalf("8x slowdown makespan %v not above fault-free %v", pb.MakeSpan, pa.MakeSpan)
	}
}

// TestTraceResponse verifies options.trace attaches the critical path and
// breakdown, and that the path's end equals the makespan bit-for-bit.
func TestTraceResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := predict(t, ts, `{"profile":{"preset":"flat-cluster"},"workload":{"kind":"sync"},"procs":16,"options":{"trace":true}}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var p PredictPoint
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	if p.CriticalPath == nil || p.Breakdown == nil {
		t.Fatalf("trace analyses missing: %s", data)
	}
	if p.CriticalPath.End != p.MakeSpan {
		t.Fatalf("critical path ends at %v, makespan %v", p.CriticalPath.End, p.MakeSpan)
	}
	if p.Collapse.Reason != "trace" {
		t.Fatalf("traced run collapse reason %q, want trace", p.Collapse.Reason)
	}
	if len(p.Breakdown.Categories) == 0 {
		t.Fatal("breakdown has no categories")
	}
}

// TestTraceRollupResponse covers the bounded-size trace payload: traceView
// "rollup" replaces the critical path and breakdown with the aggregated
// per-superstep tables and the traceTopK worst-slack ranks, and the view is
// part of the cache key (a path-view entry must not answer a rollup
// request).
func TestTraceRollupResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	pathBody := `{"profile":{"preset":"flat-cluster"},"workload":{"kind":"sync"},"procs":16,"options":{"trace":true}}`
	rollBody := `{"profile":{"preset":"flat-cluster"},"workload":{"kind":"sync"},"procs":16,"options":{"trace":true,"traceView":"rollup","traceTopK":4}}`

	if resp, data := predict(t, ts, pathBody); resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	resp, data := predict(t, ts, rollBody)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Hbspd-Cache"); got != "miss" {
		t.Fatalf("rollup request answered from the path-view cache entry (X-Hbspd-Cache = %q)", got)
	}
	var p PredictPoint
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	if p.Rollup == nil {
		t.Fatalf("rollup missing: %s", data)
	}
	if p.CriticalPath != nil || p.Breakdown != nil {
		t.Fatal("rollup view still carries the path payload")
	}
	if p.Rollup.MakeSpan != p.MakeSpan {
		t.Fatalf("rollup makespan %v != point makespan %v", p.Rollup.MakeSpan, p.MakeSpan)
	}
	if len(p.Rollup.Steps) == 0 || p.Rollup.Events == 0 {
		t.Fatalf("rollup has no per-superstep aggregates: %s", data)
	}
	if len(p.Rollup.TopSlack) != 4 {
		t.Fatalf("rollup lists %d slack ranks, want traceTopK=4", len(p.Rollup.TopSlack))
	}

	// The options are validated: views other than path/rollup, and trace
	// options without trace, are rejected.
	if resp, _ := predict(t, ts, `{"profile":{"preset":"flat-cluster"},"workload":{"kind":"sync"},"procs":4,"options":{"trace":true,"traceView":"csv"}}`); resp.StatusCode != 400 {
		t.Fatalf("unknown traceView accepted (status %d)", resp.StatusCode)
	}
	if resp, _ := predict(t, ts, `{"profile":{"preset":"flat-cluster"},"workload":{"kind":"sync"},"procs":4,"options":{"traceView":"rollup"}}`); resp.StatusCode != 400 {
		t.Fatalf("traceView without trace accepted (status %d)", resp.StatusCode)
	}
}

// TestTraceRollupHugeMessages pins the 2 GiB boundary of recorded message
// sizes at the API: an allgather of 64 MiB blocks at P=256 doubles its payload
// per stage to 8 GiB per message, and the trace records the last three stages
// saturated at MaxInt32 — their byte totals are lower bounds, never wrapped
// negatives or zeros — beside the exact bytesMoved.
func TestTraceRollupHugeMessages(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := predict(t, ts, `{"profile":{"preset":"xeon-cluster"},"workload":{"kind":"allgather","bytes":67108864},"procs":256,"options":{"trace":true,"traceView":"rollup"}}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var p PredictPoint
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	if p.BytesMoved != 4380866641920 {
		t.Errorf("bytesMoved %d, want the exact 4380866641920", p.BytesMoved)
	}
	if p.Rollup == nil || len(p.Rollup.Stages) == 0 {
		t.Fatalf("rollup stages missing: %s", data)
	}
	saturated := 0
	for _, st := range p.Rollup.Stages {
		if st.Messages != 256 {
			t.Errorf("stage %d: %d messages, want 256", st.Stage, st.Messages)
		}
		if st.Bytes <= 0 || st.Bytes > 256*math.MaxInt32 {
			t.Errorf("stage %d: %d recorded bytes for %d messages", st.Stage, st.Bytes, st.Messages)
		}
		if st.Bytes == 256*math.MaxInt32 {
			saturated++
		}
	}
	if saturated == 0 {
		t.Errorf("no stage reached the 2 GiB per-message boundary; the request no longer exercises it: %s", data)
	}
}

// TestGzipResponses covers response compression: a client that accepts gzip
// gets compressed point and sweep payloads whose decompressed bytes are
// byte-identical to the uncompressed rendering (one cache entry holds the
// rendered bytes and their encoding, so it serves both), while tiny payloads
// and clients without the header stay identity-encoded.
func TestGzipResponses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Per-rank + trace at P=64 clears the compression size floor.
	body := `{"profile":{"preset":"flat-cluster"},"workload":{"kind":"sync"},"procs":64,"options":{"perRank":true,"trace":true}}`

	// Plain request (no Accept-Encoding: identity only).
	req, _ := http.NewRequest("POST", ts.URL+"/v1/predict", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept-Encoding", "identity")
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || resp.Header.Get("Content-Encoding") != "" {
		t.Fatalf("identity request: status %d, encoding %q", resp.StatusCode, resp.Header.Get("Content-Encoding"))
	}
	if resp.Header.Get("Vary") != "Accept-Encoding" {
		t.Fatalf("Vary = %q, want Accept-Encoding", resp.Header.Get("Vary"))
	}

	// Same request with gzip: RoundTrip (not the client) so the transport
	// does not transparently decompress and we can see the encoding.
	req2, _ := http.NewRequest("POST", ts.URL+"/v1/predict", strings.NewReader(body))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set("Accept-Encoding", "gzip")
	resp2, err := http.DefaultTransport.RoundTrip(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("gzip request not compressed (encoding %q)", resp2.Header.Get("Content-Encoding"))
	}
	if got := resp2.Header.Get("X-Hbspd-Cache"); got != "hit" {
		t.Fatalf("gzip request missed the cache (X-Hbspd-Cache = %q) — one entry serves both encodings", got)
	}
	zr, err := gzip.NewReader(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	unzipped, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, unzipped) {
		t.Fatal("decompressed gzip payload differs from the identity payload")
	}

	// A tiny response (no trace/perRank) skips compression even for gzip
	// clients.
	small := `{"profile":{"preset":"flat-cluster"},"workload":{"kind":"barrier"},"procs":4}`
	req3, _ := http.NewRequest("POST", ts.URL+"/v1/predict", strings.NewReader(small))
	req3.Header.Set("Content-Type", "application/json")
	req3.Header.Set("Accept-Encoding", "gzip")
	resp3, err := http.DefaultTransport.RoundTrip(req3)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.Header.Get("Content-Encoding") != "" {
		t.Fatal("tiny payload was compressed")
	}

	// Sweep streams compress too, line-flushed through the gzip layer.
	sweep := `{"profile":{"preset":"flat-cluster"},"workload":{"kind":"sync"},"options":{"perRank":true},"sweep":{"procs":[16,32]}}`
	req4, _ := http.NewRequest("POST", ts.URL+"/v1/predict", strings.NewReader(sweep))
	req4.Header.Set("Content-Type", "application/json")
	req4.Header.Set("Accept-Encoding", "gzip")
	resp4, err := http.DefaultTransport.RoundTrip(req4)
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	if resp4.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("sweep not compressed (encoding %q)", resp4.Header.Get("Content-Encoding"))
	}
	zr4, err := gzip.NewReader(resp4.Body)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(zr4)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(stream, []byte("\n")), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("sweep stream has %d lines, want 2:\n%s", len(lines), stream)
	}
	for _, line := range lines {
		var p PredictPoint
		if err := json.Unmarshal(line, &p); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
	}
}
