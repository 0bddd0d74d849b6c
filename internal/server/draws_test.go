package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"hbsp/internal/platform"
)

// serve posts body to s and returns the reply.
func serve(t *testing.T, s *Server, body []byte) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// mustBody marshals a request.
func mustBody(t *testing.T, req *PredictRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// pointByPoint returns, from a fresh server, the lines of the sweep's points
// each requested alone: a one-point sweep, which reads through no memo.
func pointByPoint(t *testing.T, req PredictRequest) []byte {
	t.Helper()
	s := New(Config{})
	sw := *req.Sweep
	procs := sw.Procs
	if len(procs) == 0 {
		procs = []int{req.Procs}
	}
	bytesAxis, scales := sw.Bytes, sw.Scale
	if len(bytesAxis) == 0 {
		bytesAxis = []int{0}
	}
	if len(scales) == 0 {
		scales = []ScaleSpec{{}}
	}
	var out []byte
	for _, p := range procs {
		for _, b := range bytesAxis {
			for _, sc := range scales {
				one := req
				one.Procs = p
				one.Sweep = &SweepSpec{Scale: []ScaleSpec{sc}}
				if b != 0 {
					one.Sweep.Bytes = []int{b}
				}
				out = append(out, serve(t, s, mustBody(t, &one))...)
			}
		}
	}
	if m := s.Metrics(); m.SweepDraws.Computed != 0 || m.SweepDraws.Reused != 0 {
		t.Fatalf("one-point requests count memo draws: %+v", m.SweepDraws)
	}
	return out
}

// watchSweepDraws replaces newSweepDraws for the test: the memos it makes,
// bounded at most draws, are appended to the returned list.
func watchSweepDraws(t *testing.T, most int) *[]*platform.TurnDraws {
	t.Helper()
	orig := newSweepDraws
	t.Cleanup(func() { newSweepDraws = orig })
	var mu sync.Mutex
	made := new([]*platform.TurnDraws)
	newSweepDraws = func(seed int64, ranks int) *platform.TurnDraws {
		d := platform.NewTurnDraws(seed, ranks, most)
		mu.Lock()
		*made = append(*made, d)
		mu.Unlock()
		return d
	}
	return made
}

// TestSweepDrawsEachValueOnce holds the sweep memo to the reply bytes and to
// its counts. A fresh 64-point bytes × scale sweep of allreduce at P = 128 on
// xeon-cluster renders the lines its points render one at a time, and
// computes each of its 128 × 14 draws once (7 stages, two draws a send: its
// overhead and its flight): the other 63 points reuse them. A procs sweep's
// larger P extends the rows of the smaller. A noise-free machine, an upload
// or the session route makes no memo, and one bounded below a sweep's draws
// stores no more than its bound, allocates no more than it (TotalAlloc) and
// changes no line.
func TestSweepDrawsEachValueOnce(t *testing.T) {
	seed := int64(7)
	scales := []ScaleSpec{{}, {Latency: 1.25}, {Latency: 1.5}, {Latency: 2}, {Beta: 0.75},
		{Beta: 0.5}, {Latency: 3, Gap: 3}, {Overhead: 1.1}}
	allreduce := PredictRequest{
		Profile:  ProfileSpec{Preset: "xeon-cluster"},
		Workload: WorkloadSpec{Kind: "allreduce"},
		Procs:    128,
		Seed:     &seed,
		Sweep:    &SweepSpec{Bytes: []int{64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20}, Scale: scales},
	}
	made := watchSweepDraws(t, sweepDrawBound)
	s := New(Config{})
	if got, want := serve(t, s, mustBody(t, &allreduce)), pointByPoint(t, allreduce); !bytes.Equal(got, want) {
		t.Fatalf("the sweep's lines differ from its points one at a time:\n%s\n%s", got, want)
	}
	const perPoint = 128 * 14
	if m := s.Metrics().SweepDraws; m.Computed != perPoint || m.Reused != 63*perPoint {
		t.Errorf("sweep draws %+v, want %d computed and %d reused", m, perPoint, 63*perPoint)
	}
	if len(*made) != 1 {
		t.Fatalf("the sweep made %d memos, want 1", len(*made))
	}
	// Repeated, every point is a cache hit, and no memo is made.
	serve(t, s, mustBody(t, &allreduce))
	if len(*made) != 1 {
		t.Errorf("a sweep answered from the cache made a memo")
	}

	// P = 64 stores 64 × 12 draws; P = 128 reuses them and computes the
	// rest of its 128 × 14; the second P = 64 is a cache hit.
	procs := allreduce
	procs.Sweep = &SweepSpec{Procs: []int{64, 128, 64}, Bytes: []int{512}}
	s = New(Config{})
	if got, want := serve(t, s, mustBody(t, &procs)), pointByPoint(t, procs); !bytes.Equal(got, want) {
		t.Fatalf("the procs sweep's lines differ from its points one at a time:\n%s\n%s", got, want)
	}
	if m := s.Metrics().SweepDraws; m.Computed != perPoint || m.Reused != 64*12 {
		t.Errorf("procs sweep draws %+v, want %d computed and %d reused", m, perPoint, 64*12)
	}

	// No memo: a noise-free machine, an upload, the session route.
	flat := allreduce
	flat.Profile = ProfileSpec{Preset: "flat-cluster"}
	flat.Sweep = &SweepSpec{Bytes: []int{64, 256}}
	upload := PredictRequest{Profile: ProfileSpec{Matrices: asymmetricUpload(t, 9)}, Workload: WorkloadSpec{Kind: "allreduce"},
		Procs: 9, Sweep: &SweepSpec{Bytes: []int{64, 256}}}
	session := flat
	session.Profile = allreduce.Profile
	session.Procs = 16
	session.Options.Engine = "concurrent"
	for _, req := range []PredictRequest{flat, upload, session} {
		before := len(*made)
		s = New(Config{})
		serve(t, s, mustBody(t, &req))
		if m := s.Metrics().SweepDraws; len(*made) != before || m.Computed != 0 || m.Reused != 0 {
			t.Errorf("%v: %d memos made, draws %+v; want none", req.Profile, len(*made)-before, m)
		}
	}

	// Bounded: a totalexchange at P = 64 draws ≈130 a rank, 8 K a point.
	const most = 4096
	te := allreduce
	te.Workload = WorkloadSpec{Kind: "totalexchange"}
	te.Procs = 64
	te.Sweep = &SweepSpec{Bytes: []int{64, 256, 1024}}
	want := pointByPoint(t, te)
	var lines [2][]byte
	var alloc [2]uint64
	// No collection mid-run: it would empty the pools a run reuses objects from.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i, bound := range []int{0, most} {
		made = watchSweepDraws(t, bound)
		s = New(Config{})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		lines[i] = serve(t, s, mustBody(t, &te))
		runtime.ReadMemStats(&after)
		alloc[i] = after.TotalAlloc - before.TotalAlloc
	}
	for i, got := range lines {
		if !bytes.Equal(got, want) {
			t.Errorf("bound %d: the sweep's lines differ from its points one at a time:\n%s\n%s", []int{0, most}[i], got, want)
		}
	}
	st := (*made)[0].Stats()
	if m := s.Metrics().SweepDraws; st.Stored > most || st.Direct == 0 || m.Computed != st.Stored+st.Direct || m.Reused != st.Hits {
		t.Errorf("bounded memo %+v, metrics %+v: want at most %d stored, the rest computed, all of it in /metrics", st, m, most)
	}
	// The memo's draws, its row headers and slack for the rest. Under the
	// race detector a sync.Pool drops objects at random, and what a run
	// allocates with it.
	if extra := int64(alloc[1]) - int64(alloc[0]); !raceEnabled && extra > 8*most+32*64+4096 {
		t.Errorf("the bounded memo cost %d bytes more than none (%d vs %d), want at most its bound", extra, alloc[1], alloc[0])
	}
}

// TestSharedSweepDraws has goroutines share one request's memo, under -race.
// A 2-point sweep at P = 2,048 on xeon-cluster splits its per-rank walk over
// two workers, each writing the rows of its ranks through the memo at once;
// two same-seed sweeps at once coalesce on shared points, a point evaluated
// under one request's memo answering the other. Every line is the line of the
// point requested alone.
func TestSharedSweepDraws(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	seed := int64(3)
	wide := PredictRequest{
		Profile:  ProfileSpec{Preset: "xeon-cluster"},
		Workload: WorkloadSpec{Kind: "allreduce"},
		Procs:    2048,
		Seed:     &seed,
		Sweep:    &SweepSpec{Bytes: []int{64, 4096}},
	}
	s := New(Config{})
	if got, want := serve(t, s, mustBody(t, &wide)), pointByPoint(t, wide); !bytes.Equal(got, want) {
		t.Fatalf("the split sweep's lines differ from its points one at a time:\n%s\n%s", got, want)
	}
	const perPoint = 2048 * 22 // 11 stages, two draws a send
	if m := s.Metrics().SweepDraws; m.Computed != perPoint || m.Reused != perPoint {
		t.Errorf("split sweep draws %+v, want %d computed and %d reused", m, perPoint, perPoint)
	}

	same := wide
	same.Procs = 128
	same.Sweep = &SweepSpec{Bytes: []int{64, 256, 1024, 4096, 16384, 65536}, Scale: []ScaleSpec{{}, {Latency: 2}}}
	want := pointByPoint(t, same)
	s = New(Config{})
	body := mustBody(t, &same)
	var got [2][]byte
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body)))
			got[i] = rec.Body.Bytes()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, g := range got {
		if !bytes.Equal(g, want) {
			t.Errorf("sweep %d of two at once differs from its points one at a time:\n%s\n%s", i, g, want)
		}
	}
	m := s.Metrics()
	if m.CacheMisses+m.CacheHits+m.Coalesced != 24 || m.Eval.Count != 12 {
		t.Errorf("misses %d, hits %d, coalesced %d, %d evaluated: want the 12 points evaluated once between 24",
			m.CacheMisses, m.CacheHits, m.Coalesced, m.Eval.Count)
	}
	if m.SweepDraws.Computed < 128*14 {
		t.Errorf("two sweeps at once computed %d draws, want at least one point's %d", m.SweepDraws.Computed, 128*14)
	}
}
