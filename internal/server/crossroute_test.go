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

	"hbsp"
	"hbsp/collective"
	"hbsp/fault"
	"hbsp/mpi"
	"hbsp/sim"
	"hbsp/trace"
)

// The routes call the library directly; they are licensed by equivalence, not
// by argument: every point must render to the bytes the public hbsp.Session
// renders for it (sessionRun), a reference that shares none of the server's
// route code — only its cached schedules and the kinds' static descriptions,
// which the library's own tests hold to the collectives and the real bodies.

// prepare resolves a single-point request as resolver.eval does, up to the
// cache.
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

// code is the error code of a failed reply, "" for a successful one.
func (r reply) code() string {
	var e apiError
	if r.status == http.StatusOK || json.Unmarshal(r.body, &e) != nil {
		return ""
	}
	return e.Err.Code
}

// sessionRun evaluates a prepared point through the public facade: hbsp.New
// with the request's options as With* options, then RunMPI, RunBSP or
// RunProgram by kind. It returns the session's recording with the result (nil
// untraced).
func sessionRun(s *Server, req *PredictRequest, rp *resolvedProfile, w *WorkloadSpec, pt point, seed int64) (*sim.Result, *trace.Recorder, error) {
	var opts []hbsp.Option
	if rp.cluster != nil {
		opts = append(opts, hbsp.WithSeed(seed))
	}
	if req.Options.AckSends != nil {
		opts = append(opts, hbsp.WithAckSends(*req.Options.AckSends))
	}
	if req.Options.Engine == "concurrent" {
		opts = append(opts, hbsp.WithConcurrentEngine())
	}
	if req.Options.Collapse == "off" {
		opts = append(opts, hbsp.WithSymmetryCollapse(false))
	}
	if !req.Faults.Empty() {
		opts = append(opts, hbsp.WithFaults(req.Faults))
	}
	var rec *trace.Recorder
	if req.Options.Trace {
		rec = trace.NewRecorder()
		rec.SetLabel(fmt.Sprintf("%s, P=%d", w.Kind, pt.procs))
		opts = append(opts, hbsp.WithRecorder(rec))
	}
	if w.Kind == "sync" && w.Variant == "schedule" {
		sch, err := collective.Dissemination(pt.procs)
		if err != nil {
			return nil, nil, err
		}
		opts = append(opts, hbsp.WithScheduleSynchronizer(sch))
	}
	sess, err := hbsp.New(rp.machine, opts...)
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	var res *sim.Result
	switch w.Kind {
	case "sync", "stencil":
		sp, serr := kindOf(w.Kind).static(w, pt.procs)
		if serr != nil {
			return nil, nil, serr
		}
		res, err = sess.RunBSP(ctx, sp.Program())
	case "program":
		res, err = sess.RunProgram(ctx, buildProgram(w.Ranks))
	default:
		sch, serr := s.schedule(w, pt.procs)
		if serr != nil {
			return nil, nil, serr
		}
		p := pt.procs
		res, err = sess.RunMPI(ctx, func(c *mpi.Comm) error {
			var err error
			switch w.Kind {
			case "barrier":
				err = c.BarrierSchedule(sch)
			case "broadcast":
				_, err = c.BcastSchedule(sch, w.Root, float64(c.Rank()))
			case "reduce":
				_, err = c.ReduceSchedule(sch, w.Root, float64(c.Rank()), mpi.OpSum)
			case "allreduce":
				_, err = c.AllreduceSchedule(sch, float64(c.Rank()), mpi.OpSum)
			case "allgather":
				_, err = c.AllgatherSchedule(sch, float64(c.Rank()))
			case "totalexchange":
				blocks := make([]any, p)
				for i := range blocks {
					blocks[i] = float64(c.Rank()*p + i)
				}
				_, err = c.TotalExchangeSchedule(sch, blocks)
			default:
				err = fmt.Errorf("no session body for %q", w.Kind)
			}
			return err
		})
	}
	if err != nil {
		return nil, nil, err
	}
	return res, rec, nil
}

// sessionReply renders the point through sessionRun and returns the
// session's recording with it (nil untraced, or failed).
func sessionReply(s *Server, req *PredictRequest, rp *resolvedProfile, w *WorkloadSpec, pt point, seed int64) (reply, *trace.Recorder) {
	res, rec, err := sessionRun(s, req, rp, w, pt, seed)
	if err != nil {
		return replyOf(nil, err), nil
	}
	return replyOf(s.newResolver(req, []point{pt}, time.Time{}).render(rp, w, pt, res, rec)), rec
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

// admitted is resolver.eval's admission for a point evaluated outside the
// handler: no limiter.
func admitted(context.Context) (func(), error) { return func() {}, nil }

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
// upload — and the class rule to the upload too, which refuses it.
func crossPlans(r *rand.Rand, p int, upload bool) []*fault.Plan {
	class := fault.LinkRule{Src: -1, Dst: -1, Class: 2, LatencyFactor: 3, BetaFactor: 2}
	link := class
	if upload {
		link = fault.LinkRule{Src: r.Intn(p), Dst: -1, Class: -1, LatencyFactor: 3, BetaFactor: 2, End: 4e-4}
	}
	plans := []*fault.Plan{
		nil,
		{Seed: r.Int63n(100), Slowdowns: []fault.Slowdown{{Rank: r.Intn(p), Factor: 1.5, Jitter: 0.25}}},
		{Links: []fault.LinkRule{link}},
		{FailStops: []fault.FailStop{{Rank: r.Intn(p), FailAt: 2e-5, Restart: 1e-4, Checkpoint: 1.5e-5}}},
	}
	if upload {
		plans = append(plans, &fault.Plan{Links: []fault.LinkRule{class}})
	}
	return plans
}

// crossWorkloads are the workloads of the grid: every collective the server
// builds a schedule for, both sync variants, the stencil and a ring program,
// operands drawn per case — the stencil's grid from the smallest P=33 and 64
// accept (blocks of one row, no deep interior) to blocks with a deep interior
// at every P.
func crossWorkloads(r *rand.Rand, p int) []WorkloadSpec {
	bytesOf := func() int { return []int{0, 64, 1024}[r.Intn(3)] }
	sync := func(variant string) WorkloadSpec {
		return WorkloadSpec{Kind: "sync", Variant: variant, Supersteps: 1 + r.Intn(5), ComputeSeconds: []float64{0, 2e-6}[r.Intn(2)]}
	}
	ring, seconds, size := make([][]OpSpec, p), []float64{0, 1e-6}[r.Intn(2)], bytesOf()
	for i := range ring {
		ring[i] = []OpSpec{
			{Op: "compute", Seconds: seconds * float64(1+i%3)},
			{Op: "irecv", From: (i + p - 1) % p, Tag: 7},
			{Op: "isend", To: (i + 1) % p, Tag: 7, Bytes: size},
			{Op: "wait", Req: 1}, {Op: "wait", Req: 0},
		}
	}
	return []WorkloadSpec{
		{Kind: "barrier"}, {Kind: "barrier", Variant: "tree"}, {Kind: "barrier", Variant: "linear"},
		{Kind: "broadcast", Root: r.Intn(p), Bytes: bytesOf()}, {Kind: "reduce", Root: r.Intn(p), Bytes: bytesOf()},
		{Kind: "allreduce", Bytes: bytesOf()}, {Kind: "allgather", Bytes: bytesOf()}, {Kind: "totalexchange", Bytes: bytesOf()},
		sync(""), sync("schedule"),
		{Kind: "stencil", Grid: 11 + r.Intn(60), Iterations: 1 + r.Intn(3)},
		{Kind: "program", Ranks: ring},
	}
}

// TestCrossRouteEquivalence generates a seeded grid — 8 collective schedules,
// both sync variants, the stencil and a ring program × P ∈ {2, 3, 16, 33, 64}
// × four machines × untraced / critical path / rollup × four fault plans (five
// on the upload), with the engine, acks, collapse, perRank, the run seed and
// the workload operands drawn per case — and requires of every point that
// evalPoint and the public session (sessionRun) reply with the same status
// and the same bytes, of every traced one the same recording, event for
// event, and of the two refusals before evaluation (sync and stencil on the
// upload, a class-matched rule on the upload) the same error code: the
// session words them in its own terms. Every evaluated case is counted under
// the route its kind and engine name, and nothing else is. One server serves
// every case, and sched's evaluator pool hands each point an arena an earlier
// one gave back, so traced and untraced points and machines of every kind
// follow each other on recycled arenas. -short walks every sixth case.
func TestCrossRouteEquivalence(t *testing.T) {
	s, ctx := New(Config{}), context.Background()
	r := rand.New(rand.NewSource(22))
	views := []OptionsSpec{{}, {Trace: true}, {Trace: true, TraceView: "rollup", TraceTopK: 3}}
	cases, refused := 0, 0
	var counted [numRoutes]int64 // evaluations by the route crossRoute names
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
						if r.Intn(6) == 0 {
							req.Options.Engine = "concurrent"
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
						rs := s.newResolver(&req, []point{pt}, time.Time{})
						r, how, err := rs.eval(ctx, pt, admitted)
						var body []byte
						if err == nil {
							body = r.body
						}
						got := replyOf(body, err)
						want, sessionRec := sessionReply(s, &req, rp, &w, pt, seed)
						if err != nil {
							// Refused before evaluation, in the server's words.
							if got.status != want.status || got.code() == "" || got.code() != want.code() {
								t.Fatalf("evalPoint and the session disagree on\n%s\nserver  %d %s\nsession %d %s",
									sent, got.status, got.body, want.status, want.body)
							}
							refused++
							continue
						}
						if !got.equal(want) {
							t.Fatalf("evalPoint and the session disagree on\n%s\nserver  %d %s\nsession %d %s",
								sent, got.status, got.body, want.status, want.body)
						}
						rt := routeOf(&req.Options, kindOf(w.Kind))
						if rt != crossRoute(&req.Options, w.Kind) {
							t.Fatalf("request %s: route %d", sent, rt)
						}
						if how == "miss" {
							counted[rt]++
						}
						if sessionRec == nil {
							continue
						}
						// A traced point's recording, which evaluate keeps to
						// itself: run the route's body once more for it.
						_, rec, err := rs.run(ctx, rp, &w, pt)
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
	t.Logf("%d cases, %d refused; completed by route %+v", cases, refused, m)
	got := [numRoutes]int64{routeSwept: m.Swept, routeDirectBSP: m.DirectBSP, routeProgram: m.Program, routeConcurrent: m.Concurrent}
	if got != counted || refused == 0 {
		t.Errorf("route counters %+v, want %v by route (swept, directBsp, program, concurrent), and some refusals (%d)", m, counted, refused)
	}
	for r, n := range counted {
		if n == 0 {
			t.Errorf("no case took route %d", r)
		}
	}
}

// crossRoute is the route a point of the kind takes under the options, as the
// README's route table lists it.
func crossRoute(o *OptionsSpec, kind string) route {
	switch {
	case o.Engine == "concurrent":
		return routeConcurrent
	case kind == "sync" || kind == "stencil":
		return routeDirectBSP
	case kind == "program":
		return routeProgram
	}
	return routeSwept
}

// TestRoutedRequestsScaleLinearly holds the rows of the ROADMAP's "one small
// request kills the daemon" table that the routes answer: on the session a
// sync point held P goroutines, P count rows of P entries per superstep and P
// registration areas of P elements (1.26 GB at P=4,096, more than 4 GB at
// 16,384), a traced collective P known-maps beside the lanes; sync:schedule
// held a dense dissemination literal (220 MB at P=4,096); verifying an
// allreduce at the ceiling asked for two P×P bitsets (256 GB) where a
// circulant needs one P-bit row; and a stencil held two grids per rank even
// in synthetic mode (≈160 GB at grid 100,000 over 4,096 ranks). Everything a direct route allocates for one
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
		{"stencil grid=100000 P=4096", `{"profile":{"preset":"xeon-cluster"},"workload":{"kind":"stencil","grid":100000},"procs":4096}`, routeDirectBSP, 64 << 20},
		{"stencil grid=2048 P=16384", `{"profile":{"preset":"xeon-cluster"},"workload":{"kind":"stencil","grid":2048},"procs":16384}`, routeDirectBSP, 64 << 20},
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
	if m := s.Metrics(); m.Routes.Swept+m.Routes.DirectBSP != int64(len(all)) || m.Routes.Program+m.Routes.Concurrent != 0 {
		t.Errorf("%d distinct points, completed by route %+v", len(all), m.Routes)
	}
}
