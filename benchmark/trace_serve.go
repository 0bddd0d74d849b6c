package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"hbsp"
	"hbsp/bsp"
	"hbsp/cluster"
	"hbsp/collective"
	ifault "hbsp/internal/fault"
	isched "hbsp/internal/sched"
	"hbsp/mpi"
	"hbsp/sched"
	"hbsp/server"
	"hbsp/sim"
	"hbsp/stencil"
	"hbsp/trace"
)

// The traced pass of the server workloads. Nothing inside the program is
// instrumented (that is ROADMAP item 5): the harness times the layers from
// outside, twice over.
//
//  1. A fresh in-process server.New(server.Config{}) replays the set-up list
//     and the first quarter of the measured list through ServeHTTP with no
//     socket — the same cache-state sequence the daemon saw — one
//     server.handler span per request.
//  2. For sampled requests of every class the harness walks the pipeline
//     itself under a replay parent span, each stage called cold on its own
//     inputs: decode → fingerprint → machine build → schedule build / verify
//     / adjacency → partition → evaluate (or session run) → trace analysis →
//     render (→ gzip).
//
// The walk calls the layers' exported functions on inputs it maps from the
// request itself (profileOf, patternOf, programOf). The server's own decode,
// render and gzip steps are unexported, so server.decode_us, server.render_us,
// server.render_traced_us and server.gzip_us time the harness doing the same
// with the same public types and encoders: approximations from outside, which
// move with encoding/json, compress/gzip and the wire types but not with a
// change inside internal/server. The handler spans of step 1 are the real
// thing. Uploaded matrices are walked as far as decode: the server's machine
// and fingerprint for them are unexported and are not copied here.

const (
	replayShare   = 4  // the first 1/replayShare of the list is replayed
	walkPerClass  = 50 // sampled requests per class
	walkSweepEach = 6  // sweeps are 64 points each: fewer samples carry as much
)

// memWriter is the socket-less http.ResponseWriter of the replay.
type memWriter struct {
	hdr  http.Header
	buf  bytes.Buffer
	code int
}

func (w *memWriter) Header() http.Header         { return w.hdr }
func (w *memWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }
func (w *memWriter) WriteHeader(code int)        { w.code = code }
func (w *memWriter) Flush()                      {}

// serveInProcess sends one generated request through the handler.
func serveInProcess(srv *server.Server, r *request, scratch *[]byte, w *memWriter) error {
	body := r.Body
	if r.Patch != nil {
		*scratch = r.bytesFor(*scratch)
		body = *scratch
	}
	req, err := http.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
	if err != nil {
		return err
	}
	if r.Gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	w.hdr, w.code = http.Header{}, 200
	w.buf.Reset()
	srv.ServeHTTP(w, req)
	if w.code != 200 {
		return fmt.Errorf("in-process status %d: %s", w.code, bytes.TrimSpace(w.buf.Bytes()))
	}
	return nil
}

// replay runs the set-up list and the replayed share of the measured list
// through a fresh in-process server; tr may be nil (the untraced twin that
// the tracing overhead is measured against). It returns per-operation
// handler times in ms, the cache status of each reply, the (decoded) reply
// bodies of gzip requests, and the wall time of the measured part.
func replay(tr *tracer, setup, ops []request) (handlerMs []float64, how []string, bodies map[int][]byte, wall time.Duration, err error) {
	srv := server.New(server.Config{})
	var scratch []byte
	w := &memWriter{}
	for i := range setup {
		if err := serveInProcess(srv, &setup[i], &scratch, w); err != nil {
			return nil, nil, nil, 0, fmt.Errorf("replaying set-up request %d: %w", i, err)
		}
	}
	bodies = map[int][]byte{}
	start := time.Now()
	for i := range ops {
		id := tr.begin(0, i, "server", "handler")
		t0 := time.Now()
		err := serveInProcess(srv, &ops[i], &scratch, w)
		handlerMs = append(handlerMs, float64(time.Since(t0).Nanoseconds())/1e6)
		tr.end(id)
		if err != nil {
			return nil, nil, nil, 0, fmt.Errorf("replaying op %d (%s): %w", i, ops[i].Class, err)
		}
		how = append(how, w.hdr.Get("X-Hbspd-Cache"))
		if ops[i].Class == "hit_gzip" && w.hdr.Get("Content-Encoding") == "gzip" {
			if zr, err := gzip.NewReader(bytes.NewReader(w.buf.Bytes())); err == nil {
				var plain bytes.Buffer
				plain.ReadFrom(zr)
				bodies[i] = plain.Bytes()
			}
		}
	}
	return handlerMs, how, bodies, time.Since(start), nil
}

// traceServe is the traced pass of a server workload.
func traceServe(e *env, res *runResult, scale float64) error {
	setup, ops := serveLists(res.Workload, res.Seed, scale)
	n := (len(ops) + replayShare - 1) / replayShare
	ops = ops[:n]
	pl := res.PerLayer

	// One discarded replay first, so that the traced replay and its untraced
	// twin both find heap and page cache warm.
	if _, _, _, _, err := replay(nil, setup, ops); err != nil {
		return err
	}
	tr := newTracer()
	handlerMs, how, bodies, tracedWall, err := replay(tr, setup, ops)
	if err != nil {
		return err
	}
	_, _, _, plainWall, err := replay(nil, setup, ops)
	if err != nil {
		return err
	}
	pl["harness.trace_overhead_ratio"] = tracedWall.Seconds() / plainWall.Seconds()
	fmt.Printf("  in-process replay of %d requests: untraced %.3fs, traced %.3fs: tracing overhead %+.3fs\n",
		n, plainWall.Seconds(), tracedWall.Seconds(), (tracedWall - plainWall).Seconds())

	var hit, miss, sweepPoint []float64
	for i, ms := range handlerMs {
		switch {
		case ops[i].Points > 1:
			sweepPoint = append(sweepPoint, ms*1e3/float64(ops[i].Points))
		case how[i] == "hit":
			hit = append(hit, ms*1e3)
		default:
			miss = append(miss, ms*1e3)
		}
	}
	set := func(name string, v []float64) {
		if len(v) > 0 {
			res.timing(pl, name, median(v), len(v))
		}
	}
	set("server.handler_hit_us", hit)
	set("server.handler_miss_us", miss)
	set("server.handler_sweep_point_us", sweepPoint)
	// What the socket, net/http and the second process add: the daemon's
	// median latency over the same requests minus the handler's.
	if len(res.lat) >= n {
		res.timing(pl, "http.transport_us", (median(res.lat[:n])-median(handlerMs))*1e3, n)
	}

	// Stage walks over sampled requests of every class.
	byClass := map[string][]int{}
	for i := range ops {
		byClass[ops[i].Class] = append(byClass[ops[i].Class], i)
	}
	var missWalks []int // replay spans of walked misses
	handled := 0.0
	for _, class := range sortedKeys(byClass) {
		idx := byClass[class]
		want := walkPerClass
		if ops[idx[0]].Points > 1 {
			want = walkSweepEach
		}
		step := 1
		if len(idx) > want {
			step = len(idx) / want
		}
		for k := 0; k < len(idx) && k/step < want; k += step {
			i := idx[k]
			parent := tr.begin(0, i, "harness", "replay")
			hit := how[i] == "hit" || ops[i].Class == "sweep_repeat"
			whole, err := walkRequest(tr, parent, i, ops[i].bytesFor(nil), hit, bodies[i])
			tr.end(parent)
			if err != nil {
				res.fail("stage walk of op %d (%s): %v", i, class, err)
			} else if whole && how[i] == "miss" {
				missWalks = append(missWalks, parent)
				handled += handlerMs[i]
			}
		}
	}
	if handled > 0 {
		// Σ layer spans ÷ handler time on misses walked to the end: what the walked stages cover
		// of a replay span is the span minus its self time. The walk runs
		// every stage cold while the handler finds machines and schedules
		// cached, so the ratio can exceed 1; it is reported whatever its value.
		self := selfTimes(tr.spans)
		walked := 0.0
		for _, id := range missWalks {
			walked += float64((tr.spans[id-1].dur() - self[id]).Nanoseconds()) / 1e6
		}
		pl["server.replay_coverage"] = walked / handled
	}

	us := func(layer, name string) []float64 {
		d := tr.durations(layer, name)
		for i := range d {
			d[i] *= 1e3
		}
		return d
	}
	set("server.decode_us", us("server", "decode"))
	set("server.decode_matrix_ms", tr.durations("server", "decode_matrix"))
	set("server.render_us", us("server", "render"))
	set("server.render_traced_us", us("server", "render_traced"))
	set("server.gzip_us", us("server", "gzip"))
	set("platform.fingerprint_us", us("platform", "fingerprint"))
	set("platform.machine_build_ms.p256", tr.durations("platform", "machine_build.p256"))
	set("barrier.schedule_build_ms.p128", tr.durations("barrier", "schedule_build.p128"))
	set("barrier.schedule_build_ms.p256", tr.durations("barrier", "schedule_build.p256"))
	set("barrier.verify_ms.p256", tr.durations("barrier", "verify.p256"))
	set("barrier.adjacency_ms.p256", tr.durations("barrier", "adjacency.p256"))
	set("bsp.session_sync_ms.p256", tr.durations("session", "run_bsp.p256"))
	set("mpi.schedule_collective_ms.p256", tr.durations("session", "run_mpi.p256"))
	set("trace.analyze_inram_ms.p256", tr.durations("trace", "analyze.p256"))
	set("fault.compile_us", us("fault", "compile"))
	return writeSpans(e, res.Workload, tr.spans)
}

// profileOf resolves the profile specs the generators emit: the two
// parametric presets and the pooled custom profile (default core, default
// placement policy).
func profileOf(spec *server.ProfileSpec, procs int) (*cluster.Profile, error) {
	switch {
	case spec.Preset == "xeon-cluster":
		nodes := (procs + 7) / 8
		if nodes < 8 {
			nodes = 8
		}
		return cluster.XeonCluster(nodes), nil
	case spec.Preset == "flat-cluster":
		return cluster.FlatCluster(procs), nil
	case spec.Custom != nil && spec.Custom.Core == "" && spec.Custom.CoreSpec == nil && spec.Custom.Policy == "":
		c := spec.Custom
		links := map[cluster.Distance]cluster.Link{}
		for class, d := range map[string]cluster.Distance{"socket": cluster.DistanceSocket, "node": cluster.DistanceNode, "network": cluster.DistanceNetwork} {
			if l, ok := c.Links[class]; ok {
				links[d] = cluster.Link{Latency: l.Latency, Gap: l.Gap, Beta: l.Beta, Overhead: l.Overhead}
			}
		}
		prof := &cluster.Profile{
			Name: c.Name,
			Topology: cluster.Topology{Nodes: c.Topology.Nodes, SocketsPerNode: c.Topology.SocketsPerNode,
				CoresPerSocket: c.Topology.CoresPerSocket},
			Policy:       cluster.RoundRobin,
			Cores:        cluster.Xeon8x2x4().Cores,
			Links:        links,
			SelfOverhead: c.SelfOverhead, HeteroSpread: c.HeteroSpread, NoiseRel: c.NoiseRel, Seed: c.Seed,
		}
		return prof, prof.Validate()
	}
	return nil, fmt.Errorf("the stage walk does not know this profile spec")
}

// patternOf builds the schedule of a collective workload.
func patternOf(w *server.WorkloadSpec, procs int) (*collective.Pattern, error) {
	switch w.Kind {
	case "barrier":
		switch w.Variant {
		case "tree":
			return collective.Tree(procs)
		case "linear":
			return collective.Linear(procs, 0)
		}
		return collective.Dissemination(procs)
	case "broadcast":
		return collective.Broadcast(procs, w.Root, w.Bytes)
	case "reduce":
		return collective.Reduce(procs, w.Root, w.Bytes)
	case "allreduce":
		return collective.AllReduce(procs, w.Bytes)
	case "allgather":
		return collective.AllGather(procs, w.Bytes)
	case "totalexchange":
		return collective.TotalExchange(procs, w.Bytes)
	}
	return nil, fmt.Errorf("no schedule for workload %q", w.Kind)
}

// walkRequest walks one request through the pipeline, one span per stage.
// hit says the handler answered it from the result cache; plainBody is the
// decoded reply of a gzip hit (nil otherwise). whole reports whether the walk
// covered every stage the handler ran.
func walkRequest(tr *tracer, parent, op int, body []byte, hit bool, plainBody []byte) (whole bool, err error) {
	stage := func(layer, name string, fn func()) { tr.do(parent, op, layer, name, fn) }
	bg := context.Background()

	var req server.PredictRequest
	decode := "decode"
	if len(body) > 256<<10 {
		decode = "decode_matrix"
	}
	stage("server", decode, func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return false, err
	}
	w := req.Workload
	if w.Bytes == 0 && w.Kind != "barrier" {
		w.Bytes = 8
	}
	seed := int64(1)
	if req.Seed != nil {
		seed = *req.Seed
	}

	scales := []server.ScaleSpec{{}}
	byteAxis := []int{w.Bytes}
	if req.Sweep != nil {
		scales, byteAxis = req.Sweep.Scale, req.Sweep.Bytes
	}

	// Profile → fingerprint → machine, per point. The server fingerprints the
	// profile for every point, hit or miss; a hit ends there (after the gzip
	// of the cached body, if the client asked for it).
	if req.Profile.Matrices != nil {
		return false, nil // see the comment at the top of this file
	}
	var machines []*cluster.Machine
	var fp string
	for bi := range byteAxis {
		for _, sc := range scales {
			prof, err := profileOf(&req.Profile, req.Procs)
			if err != nil {
				return false, err
			}
			stage("platform", "fingerprint", func() {
				fp = prof.Fingerprint()
				if sc != (server.ScaleSpec{}) {
					one := func(v float64) float64 {
						if v == 0 {
							return 1
						}
						return v
					}
					prof = prof.Scaled(one(sc.Latency), one(sc.Gap), one(sc.Beta), one(sc.Overhead))
					fp = prof.Fingerprint()
				}
			})
			if hit || bi > 0 {
				continue // machines are built once per scale, and never on a hit
			}
			var m *cluster.Machine
			stage("platform", fmt.Sprintf("machine_build.p%d", req.Procs), func() { m, err = prof.Machine(req.Procs) })
			if err != nil {
				return false, err
			}
			machines = append(machines, m.WithRunSeed(seed))
		}
	}
	if plainBody != nil {
		stage("server", "gzip", func() {
			var out bytes.Buffer
			zw := gzip.NewWriter(&out)
			zw.Write(plainBody)
			zw.Close()
		})
	}
	if hit {
		return true, nil
	}

	// Fault plan.
	if req.Faults != nil {
		stage("fault", "compile", func() {
			_, err = ifault.Compile(req.Faults, req.Procs, machines[0].PairClass)
		})
		if err != nil {
			return false, err
		}
	}

	collectiveKind := false
	switch w.Kind {
	case "barrier", "broadcast", "reduce", "allreduce", "allgather", "totalexchange":
		collectiveKind = true
	}
	swept := collectiveKind && req.Options.Engine == "" && !req.Options.Trace

	var sw *sched.SweepEvaluator
	if swept {
		o := sched.SweepOptions{AckSends: true, Faults: req.Faults}
		if sw, err = sched.NewSweepEvaluator(machines[0], o); err != nil {
			return false, err
		}
		defer sw.Release()
	}

	for _, bytesVal := range byteAxis {
		wp := w
		wp.Bytes = bytesVal
		var pat *collective.Pattern
		if collectiveKind {
			stage("barrier", fmt.Sprintf("schedule_build.p%d", req.Procs), func() { pat, err = patternOf(&wp, req.Procs) })
			if err != nil {
				return false, err
			}
			// The server verifies first and lets Verify build the adjacency;
			// building it first times the two apart.
			stage("barrier", fmt.Sprintf("adjacency.p%d", req.Procs), func() { pat.Adjacency() })
			stage("barrier", fmt.Sprintf("verify.p%d", req.Procs), func() { err = pat.Verify() })
			if err != nil {
				return false, err
			}
		}
		for _, m := range machines {
			var result *sim.Result
			var rec *trace.Recorder
			if swept {
				stage("sched", "partition", func() { isched.CollapseClasses(m, pat.ScheduleView()) })
				stage("sched", "evaluate", func() { result, err = sw.Run(bg, m, pat.ScheduleView(), 1) })
			} else {
				result, rec, err = walkSession(stage, bg, m, &req, &wp, pat, seed)
			}
			if err != nil {
				return false, err
			}
			if !(result.MakeSpan > 0) {
				return false, fmt.Errorf("walk produced makespan %v", result.MakeSpan)
			}

			point := &server.PredictPoint{Workload: wp.Kind, Variant: wp.Variant, Procs: req.Procs, Bytes: wp.Bytes,
				Seed: seed, Engine: "auto", ProfileFingerprint: fp, MakeSpan: result.MakeSpan,
				Messages: result.Messages, BytesMoved: result.Bytes,
				Collapse: server.CollapseInfo{Applied: result.Collapse.Applied, Classes: result.Collapse.Classes, Reason: result.Collapse.Reason}}
			render := "render"
			if rec != nil {
				render = "render_traced"
				var tra *trace.Trace
				stage("trace", fmt.Sprintf("analyze.p%d", req.Procs), func() {
					if tra, err = rec.Trace(); err != nil {
						return
					}
					if req.Options.TraceView == "rollup" {
						var ru *trace.Rollup
						if ru, err = trace.RollupOf(tra, trace.RollupOptions{TopK: 8}); err == nil {
							point.MakeSpan = ru.MakeSpan
						}
						return
					}
					cp, bd := tra.CriticalPath(), tra.Breakdown()
					point.CriticalPath = &server.PathInfo{End: cp.End, Rank: cp.Rank, Hops: len(cp.Hops),
						Compute: cp.Compute, Send: cp.Send, Wait: cp.Wait, InFlight: cp.InFlight}
					for _, hop := range cp.Hops {
						point.CriticalPath.Path = append(point.CriticalPath.Path,
							server.HopInfo{Rank: hop.Rank, From: hop.From, To: hop.To, ViaPeer: hop.ViaPeer, ViaSize: hop.ViaSize})
					}
					point.Breakdown = &server.BreakdownInfo{MakeSpan: bd.MakeSpan}
					for _, cat := range trace.Categories {
						point.Breakdown.Categories = append(point.Breakdown.Categories,
							server.CategoryTotal{Category: cat.String(), Seconds: bd.TotalByCategory(cat)})
					}
				})
				if err != nil {
					return false, err
				}
			}
			stage("server", render, func() {
				sorted := sim.SortedCopy(result.Times)
				point.Times = server.TimesSummary{Min: sorted[0], P50: sorted[(len(sorted)-1)/2], Max: sorted[len(sorted)-1]}
				if req.Options.PerRank {
					point.PerRank = result.Times
				}
				_, err = json.Marshal(point)
			})
			if err != nil {
				return false, err
			}
		}
	}
	return true, nil
}

// walkSession runs one point through a full session — the path of the sync,
// stencil, program, traced and concurrent classes.
func walkSession(stage func(layer, name string, fn func()), ctx context.Context, m *cluster.Machine,
	req *server.PredictRequest, w *server.WorkloadSpec, pat *collective.Pattern, seed int64) (*sim.Result, *trace.Recorder, error) {
	opts := []hbsp.Option{hbsp.WithSeed(seed)}
	if req.Options.Engine == "concurrent" {
		opts = append(opts, hbsp.WithConcurrentEngine())
	}
	if req.Faults != nil {
		opts = append(opts, hbsp.WithFaults(req.Faults))
	}
	var rec *trace.Recorder
	if req.Options.Trace {
		rec = trace.NewRecorder()
		opts = append(opts, hbsp.WithRecorder(rec))
	}
	procs := m.Procs()
	var res *sim.Result
	var err error
	run := func(kind string, fn func(sess *hbsp.Session) (*sim.Result, error)) {
		stage("session", fmt.Sprintf("%s.p%d", kind, procs), func() {
			var sess *hbsp.Session
			if sess, err = hbsp.New(m, opts...); err == nil {
				res, err = fn(sess)
			}
		})
	}
	switch w.Kind {
	case "sync":
		steps := w.Supersteps
		if steps == 0 {
			steps = 3
		}
		run("run_bsp", func(sess *hbsp.Session) (*sim.Result, error) {
			return sess.RunBSP(ctx, func(c *bsp.Ctx) error {
				p := c.NProcs()
				c.PushReg("x", make([]float64, p))
				if err := c.Sync(); err != nil {
					return err
				}
				for step := 0; step < steps; step++ {
					c.Compute(5e-6 * float64(1+(c.Pid()+step)%4))
					if err := c.Put((c.Pid()+1+step)%p, "x", c.Pid(), []float64{float64(step)}); err != nil {
						return err
					}
					if err := c.Sync(); err != nil {
						return err
					}
				}
				return nil
			})
		})
	case "stencil":
		var body bsp.Program
		body, err = stencil.BSPProgram(procs, stencil.Config{N: w.Grid, Iterations: w.Iterations, C: 0.25, Synthetic: true}, 1, nil)
		if err != nil {
			return nil, nil, err
		}
		run("run_stencil", func(sess *hbsp.Session) (*sim.Result, error) { return sess.RunBSP(ctx, body) })
	case "program":
		pr := programOf(w.Ranks)
		run("run_program", func(sess *hbsp.Session) (*sim.Result, error) { return sess.RunProgram(ctx, pr) })
	default: // a collective on the session path: traced, concurrent or matrix-backed
		run("run_mpi", func(sess *hbsp.Session) (*sim.Result, error) {
			return sess.RunMPI(ctx, func(c *mpi.Comm) error {
				switch w.Kind {
				case "barrier":
					return c.BarrierSchedule(pat)
				case "allreduce":
					_, err := c.AllreduceSchedule(pat, float64(c.Rank()), mpi.OpSum)
					return err
				case "allgather":
					_, err := c.AllgatherSchedule(pat, float64(c.Rank()))
					return err
				case "broadcast":
					_, err := c.BcastSchedule(pat, w.Root, float64(c.Rank()))
					return err
				}
				return fmt.Errorf("the stage walk does not run %q on a session", w.Kind)
			})
		})
	}
	return res, rec, err
}
