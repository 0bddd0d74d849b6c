package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"hbsp/fault"
	"hbsp/internal/platform"
)

// refPointKey writes a point's cache key with one format string over the
// whole request, ranks hash included — the layout pointKey documents.
func refPointKey(profileFP string, plan *fault.Plan, w *WorkloadSpec, procs int, seed int64, o *OptionsSpec) string {
	ack := true
	if o.AckSends != nil {
		ack = *o.AckSends
	}
	wkey := fmt.Sprintf("%s/%s/b%d/r%d/s%d/c%x/g%d/i%d", w.Kind, w.Variant, w.Bytes, w.Root, w.Supersteps,
		math.Float64bits(w.ComputeSeconds), w.Grid, w.Iterations)
	if len(w.Ranks) > 0 {
		h := sha256.New()
		u64 := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
		u64(uint64(len(w.Ranks)))
		for _, ops := range w.Ranks {
			u64(uint64(len(ops)))
			for _, op := range ops {
				h.Write([]byte(op.Op))
				for _, v := range []uint64{math.Float64bits(op.Seconds), uint64(int64(op.To)), uint64(int64(op.From)),
					uint64(int64(op.Tag)), uint64(int64(op.Bytes)), uint64(int64(op.Req))} {
					u64(v)
				}
			}
		}
		wkey += "/p" + hex.EncodeToString(h.Sum(nil)[:16])
	}
	return fmt.Sprintf("point/%s/%s/%s/p%d/seed%d/ack%t/%s/%s/pr%t/tr%t/tv%s/tk%d",
		profileFP, plan.Fingerprint(), wkey, procs, seed, ack,
		o.Engine, o.Collapse, o.PerRank, o.Trace, o.TraceView, o.TraceTopK)
}

// TestPointKeyMatchesOneFormat holds the keys a request's points are cached
// under to refPointKey: sweeps over bytes, scale and procs, a program (its
// ranks hashed), sync and stencil operands, a fault plan, every option, an
// upload. Each request is served, and the result cache must hold every point
// under the reference key.
func TestPointKeyMatchesOneFormat(t *testing.T) {
	seed := int64(5)
	ack := false
	ring := make([][]OpSpec, 4)
	for i := range ring {
		ring[i] = []OpSpec{{Op: "compute", Seconds: 1e-6}, {Op: "isend", To: (i + 1) % 4, Tag: 3, Bytes: 64},
			{Op: "irecv", From: (i + 3) % 4, Tag: 3}, {Op: "wait"}, {Op: "wait", Req: 1}}
	}
	plan := &fault.Plan{Slowdowns: []fault.Slowdown{{Rank: 1, Factor: 2}}}
	for _, req := range []PredictRequest{
		{Profile: ProfileSpec{Preset: "xeon-cluster"}, Workload: WorkloadSpec{Kind: "allreduce"}, Procs: 16, Seed: &seed,
			Sweep: &SweepSpec{Bytes: []int{64, 1 << 20}, Scale: sweepScales[:3]}},
		{Profile: ProfileSpec{Preset: "xeon-8x2x4"}, Workload: WorkloadSpec{Kind: "broadcast", Root: 1},
			Sweep: &SweepSpec{Procs: []int{4, 8, 4}}, Faults: plan,
			Options: OptionsSpec{AckSends: &ack, Collapse: "off", PerRank: true, Trace: true, TraceView: "rollup", TraceTopK: 2}},
		{Profile: ProfileSpec{Preset: "xeon-8x2x4"}, Workload: WorkloadSpec{Kind: "program", Ranks: ring}, Procs: 4,
			Options: OptionsSpec{Engine: "concurrent"}},
		{Profile: ProfileSpec{Preset: "flat-cluster"}, Workload: WorkloadSpec{Kind: "sync", Variant: "schedule", Supersteps: 2, ComputeSeconds: 3e-6},
			Sweep: &SweepSpec{Procs: []int{2, 5}}},
		{Profile: ProfileSpec{Preset: "xeon-8x2x4"}, Workload: WorkloadSpec{Kind: "stencil", Grid: 24, Iterations: 3}, Procs: 4,
			Options: OptionsSpec{Trace: true}},
		{Profile: ProfileSpec{Matrices: asymmetricUpload(t, 9)}, Workload: WorkloadSpec{Kind: "barrier", Variant: "tree"}, Procs: 9},
	} {
		body := mustBody(t, &req)
		s := New(Config{})
		serve(t, s, body)
		if err := normalizeOptions(&req.Options); err != nil {
			t.Fatal(err)
		}
		pts, err := expandPoints(&req)
		if err != nil {
			t.Fatal(err)
		}
		rs := s.newResolver(&req, pts, time.Time{})
		for _, pt := range pts {
			w := req.Workload
			if pt.bytes != 0 {
				w.Bytes = pt.bytes
			}
			if err := normalizeWorkload(&w, pt.procs); err != nil {
				t.Fatal(err)
			}
			ref, err := rs.machine(pt.scale, pt.procs)
			if err != nil {
				t.Fatal(err)
			}
			want := refPointKey(ref.fingerprint, req.Faults, &w, pt.procs, rs.seed, &req.Options)
			if got := rs.pointKey(ref.fingerprint, &w, pt.procs); got != want {
				t.Errorf("%s: point %+v\nkey  %s\nwant %s", body, pt, got, want)
			}
			if _, ok := s.results.Get(want); !ok {
				t.Errorf("%s: point %+v is not cached under %s", body, pt, want)
			}
		}
	}
}

// countFingerprints replaces fingerprint for the test and returns the calls
// it sees, by the fingerprinted value's type.
func countFingerprints(t *testing.T) func() map[string]int {
	t.Helper()
	orig := fingerprint
	t.Cleanup(func() { fingerprint = orig })
	var mu sync.Mutex
	calls := map[string]int{}
	fingerprint = func(m interface{ Fingerprint() string }) string {
		mu.Lock()
		calls[fmt.Sprintf("%T", m)]++
		mu.Unlock()
		return orig(m)
	}
	return func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		got := calls
		calls = map[string]int{}
		return got
	}
}

// TestSweepResolvesEachMachineOnce counts the fingerprints a request's
// points compute. An 8-point bytes sweep over a P = 128 upload hashes its
// four matrices once, not per point; a 64-point bytes × scale sweep on a
// preset resolves each of its 8 scales once, fresh and again from the cache;
// a procs × scale sweep once per (scale, procs).
func TestSweepResolvesEachMachineOnce(t *testing.T) {
	calls := countFingerprints(t)
	const upload, profile = "*server.matrixMachine", "*platform.Profile"
	s := New(Config{})
	up := PredictRequest{Profile: ProfileSpec{Matrices: asymmetricUpload(t, 128)}, Workload: WorkloadSpec{Kind: "allreduce"},
		Procs: 128, Sweep: &SweepSpec{Bytes: sweepBytes}}
	serve(t, s, mustBody(t, &up))
	if got := calls(); got[upload] != 1 || len(got) != 1 {
		t.Errorf("upload bytes sweep fingerprinted %v, want its machine once", got)
	}

	seed := int64(2)
	preset := PredictRequest{Profile: ProfileSpec{Preset: "xeon-cluster"}, Workload: WorkloadSpec{Kind: "allgather"},
		Procs: 64, Seed: &seed, Sweep: &SweepSpec{Bytes: sweepBytes, Scale: sweepScales}}
	for _, pass := range []string{"fresh", "cached"} {
		serve(t, s, mustBody(t, &preset))
		if got := calls(); got[profile] != len(sweepScales) || len(got) != 1 {
			t.Errorf("%s bytes × scale sweep fingerprinted %v, want each of its %d scales once", pass, got, len(sweepScales))
		}
	}

	preset.Sweep = &SweepSpec{Procs: []int{16, 32}, Bytes: []int{64, 256}, Scale: sweepScales[:3]}
	serve(t, s, mustBody(t, &preset))
	if got := calls(); got[profile] != 2*3 || len(got) != 1 {
		t.Errorf("procs × bytes × scale sweep fingerprinted %v, want each (scale, procs) once", got)
	}
}

// TestSweepRetainsNoMoreMachinesThanTheCache serves a 32-scale sweep at
// P = 4096, twice — fresh, then from the result cache — on one resolver,
// with the machine cache bounded to 4 entries and then disabled. Each
// machine is an O(P) placement, so however many scales a sweep has, what its
// request keeps live must stay within the machine cache's bound: the
// resolver may hold the one machine its latest point used beyond it, and
// remembers the others by fingerprint only.
func TestSweepRetainsNoMoreMachinesThanTheCache(t *testing.T) {
	scales := make([]ScaleSpec, 32)
	for i := range scales {
		scales[i] = ScaleSpec{Latency: 1 + float64(i)/8}
	}
	req := PredictRequest{Profile: ProfileSpec{Preset: "xeon-cluster"}, Workload: WorkloadSpec{Kind: "barrier"},
		Procs: 4096, Sweep: &SweepSpec{Scale: scales}}
	if err := normalizeOptions(&req.Options); err != nil {
		t.Fatal(err)
	}
	pts, err := expandPoints(&req)
	if err != nil {
		t.Fatal(err)
	}
	for _, entries := range []int{4, -1} {
		s := New(Config{MachineEntries: entries})
		rs := s.newResolver(&req, pts, time.Time{})
		used := map[weak.Pointer[resolvedProfile]]bool{} // equal for the same machine
		for _, pass := range []string{"fresh", "cached"} {
			for _, pt := range pts {
				if _, how, err := rs.eval(context.Background(), pt, admitted); err != nil || (how == "hit") != (pass == "cached") {
					t.Fatalf("%s point %+v: %s, %v", pass, pt, how, err)
				}
				used[weak.Make(rs.cur)] = true
			}
		}
		runtime.GC()
		live := 0
		for p := range used {
			if p.Value() != nil {
				live++
			}
		}
		runtime.KeepAlive(rs)
		if bound := max(entries, 0) + 1; live > bound || len(used) < len(scales) {
			t.Errorf("machine cache of %d: %d of the %d machines the sweep used are live, want at most %d",
				entries, live, len(used), bound)
		}
	}
}

// cachedSweep is a 64-point bytes × scale allreduce sweep at P = 64.
func cachedSweep(tb testing.TB) []byte {
	seed := int64(7)
	body, err := json.Marshal(&PredictRequest{
		Profile:  ProfileSpec{Preset: "xeon-cluster"},
		Workload: WorkloadSpec{Kind: "allreduce"},
		Procs:    64,
		Seed:     &seed,
		Sweep:    &SweepSpec{Bytes: sweepBytes, Scale: sweepScales},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestCachedSweepSteadyStateAllocs bounds what a 64-point sweep answered
// wholly from the cache allocates, socket aside: decode, resolution, keys,
// lookups and the stream. Each point costs its key and little else; the
// resolved machines are per scale. Resolving every point anew took 1,950
// allocations; the bound is half that (≈330 now). Skipped under -race, which
// changes what allocates; CI's allocation-gates step runs it.
func TestCachedSweepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	s := New(Config{})
	body := cachedSweep(t)
	serve(t, s, body)
	allocs := testing.AllocsPerRun(20, func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body)))
	})
	if m := s.Metrics(); m.CacheMisses != 64 || m.CacheHits != 21*64 {
		t.Fatalf("misses %d, hits %d: want every repeat answered from the cache", m.CacheMisses, m.CacheHits)
	}
	if allocs > 975 {
		t.Errorf("a cached 64-point sweep allocates %.0f times, want at most 975", allocs)
	}
	t.Logf("a cached 64-point sweep allocates %.0f times", allocs)
}

// TestSharedSweepResolution serves two overlapping sweeps and a single point
// that one of them contains at once, on one server, each with its own
// resolver: every reply is byte for byte its reply served alone, the shared
// points are evaluated once between them, and once the requests have
// returned nothing they resolved survives — no sweep memo stays reachable
// (the resolver and the seeded machines its points ran on hold it) and no goroutine is left.
func TestSharedSweepResolution(t *testing.T) {
	seed := int64(11)
	sweep := func(b []int) PredictRequest {
		return PredictRequest{Profile: ProfileSpec{Preset: "xeon-cluster"}, Workload: WorkloadSpec{Kind: "allreduce"},
			Procs: 64, Seed: &seed, Sweep: &SweepSpec{Bytes: b, Scale: []ScaleSpec{{}, {Latency: 2}}}}
	}
	single := PredictRequest{Profile: ProfileSpec{Preset: "xeon-cluster"}, Workload: WorkloadSpec{Kind: "allreduce", Bytes: 4096},
		Procs: 64, Seed: &seed}
	reqs := []PredictRequest{sweep([]int{64, 256, 1024, 4096}), sweep([]int{1024, 4096, 16384}), single}
	want := make([][]byte, len(reqs))
	for i := range reqs {
		want[i] = serve(t, New(Config{}), mustBody(t, &reqs[i]))
	}

	var mu sync.Mutex
	var memos []weak.Pointer[platform.TurnDraws]
	orig := newSweepDraws
	t.Cleanup(func() { newSweepDraws = orig })
	newSweepDraws = func(seed int64, ranks int) *platform.TurnDraws {
		d := orig(seed, ranks)
		mu.Lock()
		memos = append(memos, weak.Make(d))
		mu.Unlock()
		return d
	}
	base := runtime.NumGoroutine()
	s := New(Config{})
	got := make([][]byte, len(reqs))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range reqs {
		body := mustBody(t, &reqs[i])
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body)))
			got[i] = rec.Body.Bytes()
		}()
	}
	close(start)
	wg.Wait()
	for i := range reqs {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("request %d at once with the others differs from its reply alone:\n%s\n%s", i, got[i], want[i])
		}
	}
	if m := s.Metrics(); m.Eval.Count != 10 || m.CacheMisses+m.CacheHits+m.Coalesced != 8+6+1 {
		t.Errorf("%d evaluated, misses %d, hits %d, coalesced %d: want the 10 distinct points evaluated once between 15",
			m.Eval.Count, m.CacheMisses, m.CacheHits, m.Coalesced)
	}

	if len(memos) == 0 {
		t.Fatal("no sweep made a memo")
	}
	runtime.GC()
	runtime.GC()
	for i, p := range memos {
		if p.Value() != nil {
			t.Errorf("sweep memo %d of %d is still reachable after its request", i, len(memos))
		}
	}
	for start := time.Now(); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("%d goroutines after the requests, %d before", runtime.NumGoroutine(), base)
		}
	}
}

// BenchmarkCachedSweep times a 64-point sweep answered wholly from the
// cache: the per-point cost of resolving, keying and looking up a point.
func BenchmarkCachedSweep(b *testing.B) {
	s := New(Config{})
	body := cachedSweep(b)
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body)))
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sweepBytes)*len(sweepScales)), "ns/point")
}
