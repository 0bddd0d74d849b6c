package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hbsp/fault"
	"hbsp/trace"
)

// The direct routes are licensed by equivalence, not by argument: every point
// they serve must render to the bytes the session renders for it. The session
// is reached here by calling evaluateSession from the test — there is no
// production switch that sends a routed point back to it.

// prepare resolves a single-point request as evalPoint does, up to the cache.
func prepare(s *Server, req *PredictRequest) (rp *resolvedProfile, w WorkloadSpec, pt point, seed int64, err error) {
	if err = normalizeOptions(&req.Options); err != nil {
		return
	}
	pts, err := expandPoints(req)
	if err != nil {
		return
	}
	pt, w = pts[0], req.Workload
	if err = normalizeWorkload(&w, pt.procs); err != nil {
		return
	}
	if rp, err = s.resolveProfile(&req.Profile, pt.scale, pt.procs); err != nil {
		return
	}
	seed = 1
	if req.Seed != nil {
		seed = *req.Seed
	}
	return
}

// reply is what a client would see of one evaluation.
type reply struct {
	status int
	body   []byte
}

func replyOf(body []byte, err error) reply {
	if err != nil {
		body, status := renderError(err)
		return reply{status, body}
	}
	return reply{http.StatusOK, body}
}

func (r reply) equal(o reply) bool { return r.status == o.status && bytes.Equal(r.body, o.body) }

// sessionReply renders the point through evaluateSession, whatever its route,
// and returns the session's recording with it (nil untraced, or failed).
func sessionReply(s *Server, req *PredictRequest, rp *resolvedProfile, w *WorkloadSpec, pt point, seed int64) (reply, *trace.Recorder) {
	res, perIter, rec, err := s.evaluateSession(context.Background(), req, rp, w, pt, seed, time.Time{})
	if err != nil {
		return replyOf(nil, err), nil
	}
	return replyOf(s.renderPoint(req, rp, w, pt, seed, res, perIter, rec)), rec
}

// spill is a recording as spill bytes: run metadata, summary and every lane,
// event for event — tags and labels included, which no rendered view shows.
func spill(t *testing.T, rec *trace.Recorder) []byte {
	t.Helper()
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteSpill(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// routedReply renders the point as production does.
func routedReply(s *Server, req *PredictRequest, rp *resolvedProfile, w *WorkloadSpec, pt point, seed int64) reply {
	return replyOf(s.evaluate(context.Background(), req, rp, w, pt, seed, time.Time{}))
}

// literal prints a request so that it can be pasted into curl -d.
func literal(req *PredictRequest) string {
	data, err := json.Marshal(req)
	if err != nil {
		return fmt.Sprintf("%+v (%v)", req, err)
	}
	return string(data)
}

// crossProfiles are the machines of the grid: a noisy heterogeneous preset, a
// homogeneous one (where collapse applies, or would but for the recorder), a
// custom profile with spread and noise, and an asymmetric upload.
func crossProfiles(t *testing.T, p int) []ProfileSpec {
	return []ProfileSpec{
		{Preset: "xeon-cluster"},
		{Preset: "flat-cluster"},
		{Custom: &CustomProfile{
			Name:     "cross",
			Topology: TopologySpec{Nodes: 8, SocketsPerNode: 2, CoresPerSocket: 4},
			Links: map[string]LinkSpec{
				"socket":  {Latency: 0.45e-6, Gap: 0.10e-6, Beta: 1 / 5.0e9, Overhead: 0.30e-6},
				"node":    {Latency: 0.90e-6, Gap: 0.15e-6, Beta: 1 / 3.0e9, Overhead: 0.40e-6},
				"network": {Latency: 28e-6, Gap: 12e-6, Beta: 1 / 110.0e6, Overhead: 1.2e-6},
			},
			SelfOverhead: 0.12e-6, HeteroSpread: 0.06, NoiseRel: 0.04, Seed: 1,
		}},
		{Matrices: asymmetricUpload(t, p)},
	}
}

// crossPlans are the fault plans of the grid, one per rule kind; the class
// rule goes to machines that have distance classes, the rank-pair rule to the
// upload.
func crossPlans(r *rand.Rand, p int, upload bool) []*fault.Plan {
	link := fault.LinkRule{Src: -1, Dst: -1, Class: 2, LatencyFactor: 3, BetaFactor: 2}
	if upload {
		link = fault.LinkRule{Src: r.Intn(p), Dst: -1, Class: -1, LatencyFactor: 3, BetaFactor: 2, End: 4e-4}
	}
	return []*fault.Plan{
		nil,
		{Seed: r.Int63n(100), Slowdowns: []fault.Slowdown{{Rank: r.Intn(p), Factor: 1.5, Jitter: 0.25}}},
		{Links: []fault.LinkRule{link}},
		{FailStops: []fault.FailStop{{Rank: r.Intn(p), FailAt: 2e-5, Restart: 1e-4, Checkpoint: 1.5e-5}}},
	}
}

// crossWorkloads are the routed workloads: every collective the server builds
// a schedule for and both sync variants, operands drawn per case.
func crossWorkloads(r *rand.Rand, p int) []WorkloadSpec {
	bytesOf := func() int { return []int{0, 64, 1024}[r.Intn(3)] }
	sync := func(variant string) WorkloadSpec {
		return WorkloadSpec{Kind: "sync", Variant: variant, Supersteps: 1 + r.Intn(5), ComputeSeconds: []float64{0, 2e-6}[r.Intn(2)]}
	}
	return []WorkloadSpec{
		{Kind: "barrier"}, {Kind: "barrier", Variant: "tree"}, {Kind: "barrier", Variant: "linear"},
		{Kind: "broadcast", Root: r.Intn(p), Bytes: bytesOf()}, {Kind: "reduce", Root: r.Intn(p), Bytes: bytesOf()},
		{Kind: "allreduce", Bytes: bytesOf()}, {Kind: "allgather", Bytes: bytesOf()}, {Kind: "totalexchange", Bytes: bytesOf()},
		sync(""), sync("schedule"),
	}
}

// TestCrossRouteEquivalence generates a seeded grid — 8 collective schedules
// and both sync variants × P ∈ {2, 3, 16, 33, 64} × four machines × untraced /
// critical path / rollup × four fault plans, with acks, collapse, perRank,
// the run seed and the workload operands drawn per case — and requires of
// every point that the route production takes and the session render the same
// status and the same bytes, and of every traced one the same recording, event
// for event. One server serves every case, and sched's evaluator pool hands
// each point an arena an earlier one gave back, so traced and untraced points
// and machines of every kind follow each other on recycled arenas. -short
// walks every sixth case.
func TestCrossRouteEquivalence(t *testing.T) {
	s, ctx := New(Config{}), context.Background()
	r := rand.New(rand.NewSource(22))
	views := []OptionsSpec{{}, {Trace: true}, {Trace: true, TraceView: "rollup", TraceTopK: 3}}
	cases, direct := 0, 0
	for _, p := range []int{2, 3, 16, 33, 64} {
		for pi, profile := range crossProfiles(t, p) {
			upload := profile.Matrices != nil
			for _, w := range crossWorkloads(r, p) {
				for _, view := range views {
					for _, plan := range crossPlans(r, p, upload) {
						ack, seed := r.Intn(4) != 0, 1+r.Int63n(1000)
						req := PredictRequest{Profile: profile, Workload: w, Procs: p, Faults: plan, Options: view}
						req.Options.AckSends, req.Options.PerRank = &ack, r.Intn(2) == 0
						if r.Intn(4) == 0 {
							req.Options.Collapse = "off"
						}
						if !upload {
							req.Seed = &seed
						}
						if cases++; testing.Short() && cases%6 != pi {
							continue
						}
						sent := literal(&req) // before normalization fills the defaults in
						rp, w, pt, seed, err := prepare(s, &req)
						if err != nil {
							t.Fatalf("request %s: %v", sent, err)
						}
						rt := routeOf(&req.Options, &w, rp)
						if wantSession := w.Kind == "sync" && upload; (rt == routeSession) != wantSession {
							t.Fatalf("request %s: route %d", sent, rt)
						}
						if rt != routeSession {
							direct++
						}
						got := routedReply(s, &req, rp, &w, pt, seed)
						want, sessionRec := sessionReply(s, &req, rp, &w, pt, seed)
						if !got.equal(want) {
							t.Fatalf("route %d and the session disagree on\n%s\nroute   %d %s\nsession %d %s",
								rt, sent, got.status, got.body, want.status, want.body)
						}
						// A traced point's recording, which evaluate keeps to
						// itself: run the route's body once more for it.
						var rec *trace.Recorder
						switch {
						case sessionRec == nil:
							continue
						case rt == routeSwept:
							_, rec, err = s.evaluateSwept(ctx, &req, rp, &w, pt, seed, time.Time{})
						case rt == routeDirectBSP:
							_, rec, err = s.evaluateSync(ctx, &req, rp, &w, pt, seed, time.Time{})
						}
						if err != nil {
							t.Fatalf("request %s: %v", sent, err)
						}
						if !bytes.Equal(spill(t, rec), spill(t, sessionRec)) {
							t.Fatalf("route %d and the session record different events for\n%s", rt, sent)
						}
					}
				}
			}
		}
	}
	m := s.Metrics().Routes
	t.Logf("%d cases, %d on a direct route; completed by route %+v", cases, direct, m)
	if m.Swept == 0 || m.DirectBSP == 0 || m.Swept+m.DirectBSP != int64(direct) || m.Session != 0 {
		t.Errorf("route counters %+v, want every one of the %d direct cases under swept or directBsp and none under session "+
			"(the reference evaluations bypass evaluate)", m, direct)
	}
}

// TestRoutedRequestsScaleLinearly holds the rows of the ROADMAP's "one small
// request kills the daemon" table that the routes answer: on the session a
// sync point held P goroutines, P count rows of P entries per superstep and P
// registration areas of P elements (1.26 GB at P=4,096, more than 4 GB at
// 16,384), a traced collective P known-maps beside the lanes; sync:schedule
// held a dense dissemination literal (220 MB at P=4,096); and verifying an
// allreduce at the ceiling asked for two P×P bitsets (256 GB) where a
// circulant needs one P-bit row. Everything a direct route allocates for one
// is bounded here — lanes and rendering included — so a quadratic term cannot
// come back unnoticed.
func TestRoutedRequestsScaleLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("P=16384, a traced P=4096 and P=2^20")
	}
	for _, c := range []struct {
		name, body string
		route      route
		limit      uint64
	}{
		{"sync P=16384", `{"profile":{"preset":"xeon-cluster"},"workload":{"kind":"sync"},"procs":16384}`, routeDirectBSP, 64 << 20},
		{"traced allreduce P=4096", `{"profile":{"preset":"xeon-cluster"},"workload":{"kind":"allreduce"},"procs":4096,"options":{"trace":true}}`, routeSwept, 128 << 20},
		{"sync:schedule P=16384", `{"profile":{"preset":"xeon-cluster"},"workload":{"kind":"sync","variant":"schedule"},"procs":16384}`, routeDirectBSP, 64 << 20},
		{"allreduce P=2^20", `{"profile":{"preset":"flat-cluster"},"workload":{"kind":"allreduce"},"procs":1048576}`, routeSwept, 256 << 20},
	} {
		s := New(Config{})
		var rec *httptest.ResponseRecorder
		start := time.Now()
		alloc := totalAlloc(func() { rec = serveInProcess(s, c.body, false) })
		if rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", c.name, rec.Code, clip(rec.Body.Bytes()))
		}
		t.Logf("%s: %v, %d KiB allocated", c.name, time.Since(start).Round(time.Millisecond), alloc>>10)
		if alloc >= c.limit {
			t.Errorf("%s allocated %d MiB, want < %d", c.name, alloc>>20, c.limit>>20)
		}
		if got := s.m.routes[c.route].Load(); got != 1 {
			t.Errorf("%s: %d evaluations on route %d, want 1 (%+v)", c.name, got, c.route, s.Metrics().Routes)
		}
	}
}

// TestSharedConcurrentTracedRequests sends traced and untraced points on one
// machine family and rank count — differing only in run seed and trace
// options — from several goroutines at once, and requires every reply to be
// the one the session renders for that request alone. The points share the
// server's machine, schedule and result caches, its singleflight group and
// sched's evaluator pool: a recorder, arena or cache entry that leaked from
// one point into another shows as a foreign trace or time in somebody's reply
// (and as a race under -race). Sync points ride along on their own route.
func TestSharedConcurrentTracedRequests(t *testing.T) {
	s := New(Config{MaxConcurrent: 8, MaxQueue: 64})
	type exchange struct {
		body string
		want reply
	}
	var all []exchange
	for i := 0; i < 24; i++ {
		seed := int64(100 + i)
		req := PredictRequest{Profile: ProfileSpec{Preset: "flat-cluster"}, Workload: WorkloadSpec{Kind: "allreduce", Bytes: 64}, Procs: 32, Seed: &seed}
		switch i % 4 {
		case 1:
			req.Options = OptionsSpec{Trace: true}
		case 2:
			req.Options = OptionsSpec{Trace: true, TraceView: "rollup"}
		case 3:
			req.Workload = WorkloadSpec{Kind: "sync", Supersteps: 2}
			req.Options = OptionsSpec{Trace: i%8 == 3}
		}
		body := literal(&req)
		rp, w, pt, seed, err := prepare(s, &req)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := sessionReply(s, &req, rp, &w, pt, seed)
		if want.status != http.StatusOK {
			t.Fatalf("%s: session status %d", body, want.status)
		}
		all = append(all, exchange{body, want})
	}

	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Every worker sends every request, each starting elsewhere: the
			// first to arrive evaluates, the others coalesce or hit.
			for k := range all {
				x := all[(k+w*len(all)/workers)%len(all)]
				rec := serveInProcess(s, x.body, false)
				if got := (reply{rec.Code, rec.Body.Bytes()}); !got.equal(x.want) {
					t.Errorf("%s\ngot  %d %s\nwant %d %s", x.body, got.status, clip(got.body), x.want.status, clip(x.want.body))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if m := s.Metrics(); m.Routes.Swept+m.Routes.DirectBSP != int64(len(all)) || m.Routes.Session != 0 {
		t.Errorf("%d distinct points, completed by route %+v", len(all), m.Routes)
	}
}
