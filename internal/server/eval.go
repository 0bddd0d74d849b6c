package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"hbsp"
	"hbsp/fault"
	"hbsp/internal/bsp"
	"hbsp/sim"
	"hbsp/trace"
)

// point is one fully resolved sweep point: the rank count, the payload
// override (0 = use the workload's own), and the link-parameter scaling.
type point struct {
	procs int
	bytes int
	scale ScaleSpec
}

// The request ceilings, checked before anything is sized from the numbers
// they bound.
const (
	// maxProcs is the largest rank count a point may ask for: the largest the
	// repository evaluates anywhere (the collapsed runs at P=2^20). A machine
	// is O(P) to build, so an unbounded procs is an unbounded allocation.
	maxProcs = 1 << 20
	// maxSweepPoints bounds the cross product of a sweep's axes; every point
	// gets a result slot and a line of the reply.
	maxSweepPoints = 4096
)

// checkProcs validates one rank count; what names where it came from.
func checkProcs(what string, procs int) error {
	if procs < 1 {
		return badRequestf("%s must be >= 1, got %d", what, procs)
	}
	if procs > maxProcs {
		return badRequestf("%s must be <= %d, got %d", what, maxProcs, procs)
	}
	return nil
}

// expandPoints builds the row-major cross product of a request's sweep axes
// (procs outermost, then bytes, then scale); a request without a sweep is a
// single point. Rank counts beyond maxProcs and sweeps of more than
// maxSweepPoints points are refused here, before the points exist.
func expandPoints(req *PredictRequest) ([]point, error) {
	if req.Sweep == nil {
		if err := checkProcs("procs", req.Procs); err != nil {
			return nil, err
		}
		return []point{{procs: req.Procs}}, nil
	}
	procsAxis := req.Sweep.Procs
	if len(procsAxis) == 0 {
		if req.Procs < 1 {
			return nil, badRequestf("sweep without a procs axis needs top-level procs")
		}
		procsAxis = []int{req.Procs}
	}
	bytesAxis := req.Sweep.Bytes
	if len(bytesAxis) == 0 {
		bytesAxis = []int{0}
	}
	scaleAxis := req.Sweep.Scale
	if len(scaleAxis) == 0 {
		scaleAxis = []ScaleSpec{{}}
	}
	// Axis by axis, so the product cannot overflow before it is compared.
	n := 1
	for _, axis := range []int{len(procsAxis), len(bytesAxis), len(scaleAxis)} {
		if n *= axis; n > maxSweepPoints {
			return nil, badRequestf("sweep has more than %d points (%d procs × %d bytes × %d scale entries)",
				maxSweepPoints, len(procsAxis), len(bytesAxis), len(scaleAxis))
		}
	}
	pts := make([]point, 0, n)
	for _, p := range procsAxis {
		if err := checkProcs("sweep.procs entries", p); err != nil {
			return nil, err
		}
		for _, b := range bytesAxis {
			if b < 0 {
				return nil, badRequestf("sweep.bytes entries must be >= 0, got %d", b)
			}
			for _, sc := range scaleAxis {
				pts = append(pts, point{procs: p, bytes: b, scale: sc})
			}
		}
	}
	return pts, nil
}

// normalizeOptions validates the request options.
func normalizeOptions(o *OptionsSpec) error {
	switch o.Engine {
	case "":
		o.Engine = "auto"
	case "auto", "concurrent":
	default:
		return badRequestf("unknown engine %q (auto, concurrent)", o.Engine)
	}
	switch o.Collapse {
	case "":
		o.Collapse = "auto"
	case "auto", "off":
	default:
		return badRequestf("unknown collapse mode %q (auto, off)", o.Collapse)
	}
	if o.BudgetMs < 0 {
		return badRequestf("budgetMs must be >= 0, got %d", o.BudgetMs)
	}
	switch o.TraceView {
	case "":
		o.TraceView = "path"
	case "path", "rollup":
		if !o.Trace {
			return badRequestf("traceView requires options.trace")
		}
	default:
		return badRequestf("unknown traceView %q (path, rollup)", o.TraceView)
	}
	if o.TraceTopK < 0 {
		return badRequestf("traceTopK must be >= 0, got %d", o.TraceTopK)
	}
	if o.TraceTopK > 0 && !o.Trace {
		return badRequestf("traceTopK requires options.trace")
	}
	if o.TraceTopK == 0 {
		o.TraceTopK = 8
	}
	return nil
}

// pointKey is the canonical cache key of one point: everything a prediction
// depends on. The profile enters through its content fingerprint (so two
// spellings of the same machine share an entry), the fault plan through its
// fingerprint, the workload through its normalized field key.
func pointKey(profileFP string, plan *fault.Plan, w *WorkloadSpec, pt point, seed int64, o *OptionsSpec) string {
	ack := true
	if o.AckSends != nil {
		ack = *o.AckSends
	}
	return fmt.Sprintf("point/%s/%s/%s/p%d/seed%d/ack%t/%s/%s/pr%t/tr%t/tv%s/tk%d",
		profileFP, plan.Fingerprint(), w.cacheKey(), pt.procs, seed, ack,
		o.Engine, o.Collapse, o.PerRank, o.Trace, o.TraceView, o.TraceTopK)
}

// evalPoint evaluates one point to its rendered NDJSON line (JSON object plus
// trailing newline), going through the result cache and the singleflight
// group. admit is invoked before an actual evaluation runs (the handler
// passes the limiter for single-point requests and a no-op for sweeps, which
// are admitted once as a whole). draws is a sweep's noise-draw memo, nil for
// a single point.
func (s *Server) evalPoint(ctx context.Context, req *PredictRequest, pt point, deadline time.Time, admit func(context.Context) (func(), error), draws *sweepDraws) ([]byte, string, error) {
	w := req.Workload // copy: normalization and byte overrides are per-point
	if pt.bytes != 0 {
		switch w.Kind {
		case "broadcast", "reduce", "allreduce", "allgather", "totalexchange":
			w.Bytes = pt.bytes
		default:
			return nil, "", badRequestf("sweep.bytes applies to the data collectives, not %q", w.Kind)
		}
	}
	if err := normalizeWorkload(&w, pt.procs); err != nil {
		return nil, "", err
	}

	rp, err := s.resolveProfile(&req.Profile, pt.scale, pt.procs)
	if err != nil {
		return nil, "", err
	}

	seed := int64(1)
	if req.Seed != nil {
		seed = *req.Seed
	}
	if rp.cluster == nil && req.Seed != nil {
		return nil, "", badRequestf("seed applies to profile-backed machines; uploaded matrices carry no noise model")
	}

	key := pointKey(rp.fingerprint, req.Faults, &w, pt, seed, &req.Options)
	s.m.points.Add(1)
	if body, ok := s.results.Get(key); ok {
		s.m.cacheHits.Add(1)
		return body.([]byte), "hit", nil
	}

	body, shared, err := s.flights.Do(key, func() ([]byte, error) {
		// A flight that ended since the miss above left its result behind.
		if body, ok := s.results.Get(key); ok {
			return body.([]byte), nil
		}
		release, err := admit(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		start := time.Now()
		body, err := s.evaluate(ctx, req, draws.of(&req.Options, &w, rp, seed), &w, pt, seed, deadline)
		if err != nil {
			return nil, err
		}
		s.m.observeEval(time.Since(start).Nanoseconds())
		s.results.Put(key, body)
		return body, nil
	})
	if err != nil {
		return nil, "", err
	}
	how := "miss"
	if shared {
		how = "coalesced"
		s.m.coalesced.Add(1)
	} else {
		s.m.cacheMisses.Add(1)
	}
	return body, how, nil
}

// route names the body a cache-missed point is evaluated on; /metrics counts
// completed evaluations under it.
type route int

const (
	routeSwept     route = iota // a sched.SweepEvaluator per point, no rank goroutines
	routeDirectBSP              // bsp.RunStatic, no goroutines
	routeSession                // an hbsp.Session
	numRoutes
)

// routeOf is the route decision, in precedence order. What the direct
// evaluator can price from a static description alone it prices — the
// collectives as one execution of their schedule, the sync workload and the
// stencil as supersteps around their count exchange (bsp.Static) — traced or
// not, with or without faults. The session keeps engine "concurrent", which
// asks for the message-by-message walk; the program workload, which it hands
// to sched.RunProgram without spawning a rank; and sync and stencil on an
// uploaded machine, which it refuses (no kernel-rate model).
func routeOf(o *OptionsSpec, w *WorkloadSpec, rp *resolvedProfile) route {
	switch {
	case o.Engine != "auto":
		return routeSession
	case scheduleKind(w.Kind):
		return routeSwept
	case (w.Kind == "sync" || w.Kind == "stencil") && rp.cluster != nil:
		return routeDirectBSP
	}
	return routeSession
}

// evaluate runs one cache-missed point on the route routeOf picks and renders
// the PredictPoint. The rendered bytes are what the cache stores, so hits are
// byte-identical to the miss that filled them; the routes produce
// bit-identical results and recorded events, so which one filled an entry
// shows in /metrics and nowhere in the reply.
//
// A panic below this point is a bug in an evaluation path, not bad input, but
// it must cost one request and nothing else: it is returned as an error the
// handler classifies as internal (500), where net/http's own recover would
// drop the connection (or, mid-sweep, the lines already streamed).
func (s *Server) evaluate(ctx context.Context, req *PredictRequest, rp *resolvedProfile, w *WorkloadSpec, pt point, seed int64, deadline time.Time) (body []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			body, err = nil, fmt.Errorf("server: evaluation panicked: %v", r)
		}
	}()
	var res *sim.Result
	var rec *trace.Recorder
	r := routeOf(&req.Options, w, rp)
	switch r {
	case routeSwept:
		res, rec, err = s.evaluateSwept(ctx, req, rp, w, pt, seed, deadline)
	case routeDirectBSP:
		res, rec, err = s.evaluateSync(ctx, req, rp, w, pt, seed, deadline)
	default:
		res, rec, err = s.evaluateSession(ctx, req, rp, w, pt, seed, deadline)
	}
	if err != nil {
		return nil, err
	}
	if body, err = s.renderPoint(req, rp, w, pt, seed, res, rec); err != nil {
		return nil, err
	}
	s.m.routes[r].Add(1)
	return body, nil
}

// budgetLeft converts a request deadline into the wall-clock bound of the
// evaluation about to start: 0 (the evaluator's default) without a deadline,
// hbsp.ErrDeadline once it has passed.
func budgetLeft(deadline time.Time) (time.Duration, error) {
	if deadline.IsZero() {
		return 0, nil
	}
	left := time.Until(deadline)
	if left <= 0 {
		return 0, fmt.Errorf("%w: request budget exhausted before evaluation", hbsp.ErrDeadline)
	}
	return left, nil
}

// newRecorder returns the labelled recorder of a traced point, nil (the
// disabled recorder) for any other.
func newRecorder(req *PredictRequest, w *WorkloadSpec, pt point) *trace.Recorder {
	if !req.Options.Trace {
		return nil
	}
	rec := trace.NewRecorder()
	rec.SetLabel(fmt.Sprintf("%s, P=%d", w.Kind, pt.procs))
	return rec
}

// evaluateSession runs one point through the full session machinery — the
// path every workload kind supports, and the reference the direct routes are
// held to.
func (s *Server) evaluateSession(ctx context.Context, req *PredictRequest, rp *resolvedProfile, w *WorkloadSpec, pt point, seed int64, deadline time.Time) (*sim.Result, *trace.Recorder, error) {
	opts := []hbsp.Option{}
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
	if req.Faults != nil && !req.Faults.Empty() {
		opts = append(opts, hbsp.WithFaults(req.Faults))
	}
	left, err := budgetLeft(deadline)
	if err != nil {
		return nil, nil, err
	}
	if left > 0 {
		opts = append(opts, hbsp.WithDeadline(left))
	}
	rec := newRecorder(req, w, pt)
	if rec != nil {
		opts = append(opts, hbsp.WithRecorder(rec))
	}
	sync, err := s.synchronizer(w, pt.procs)
	if err != nil {
		return nil, nil, err
	}
	opts = append(opts, hbsp.WithSynchronizer(sync))

	sess, err := hbsp.New(rp.machine, opts...)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.runWorkload(ctx, sess, w, pt.procs)
	if err != nil {
		return nil, nil, err
	}
	return res, rec, nil
}

// runOptions translates the request options a direct route honours — acks,
// collapse mode, fault plan — into simulator options; the deadline and the
// recorder belong to one evaluation and are set by it.
func runOptions(req *PredictRequest) sim.Options {
	o := sim.DefaultOptions()
	if req.Options.AckSends != nil {
		o.AckSends = *req.Options.AckSends
	}
	if req.Options.Collapse == "off" {
		o.SymmetryCollapse = sim.CollapseOff
	}
	if req.Faults != nil && !req.Faults.Empty() {
		o.Faults = req.Faults
	}
	return o
}

// evaluateSync prices one sync or stencil point from its static description
// (staticWorkload) on the direct engine: no session, no rank goroutines, no
// grid, memory linear in procs.
func (s *Server) evaluateSync(ctx context.Context, req *PredictRequest, rp *resolvedProfile, w *WorkloadSpec, pt point, seed int64, deadline time.Time) (*sim.Result, *trace.Recorder, error) {
	o := runOptions(req)
	left, err := budgetLeft(deadline)
	if err != nil {
		return nil, nil, err
	}
	o.Deadline = left // 0: the evaluator's default
	rec := newRecorder(req, w, pt)
	o.Recorder = rec
	sync, err := s.synchronizer(w, pt.procs)
	if err != nil {
		return nil, nil, err
	}
	sp, err := staticWorkload(w, pt.procs)
	if err != nil {
		return nil, nil, err
	}
	res, err := bsp.RunStatic(ctx, rp.seededCluster(seed), sync, sp, o)
	if errors.Is(err, hbsp.ErrInvalidFault) {
		// A plan the machine rejects, worded as hbsp.WithFaults words it.
		err = fmt.Errorf("hbsp: %w", err)
	}
	return res, rec, err
}

// renderPoint renders an evaluated point to its NDJSON line (JSON object
// plus trailing newline), the shared tail of every route.
func (s *Server) renderPoint(req *PredictRequest, rp *resolvedProfile, w *WorkloadSpec, pt point, seed int64, res *sim.Result, rec *trace.Recorder) ([]byte, error) {
	p := &PredictPoint{
		Workload:           w.Kind,
		Variant:            w.Variant,
		Procs:              pt.procs,
		Bytes:              w.Bytes,
		Seed:               seed,
		Engine:             req.Options.Engine,
		ProfileFingerprint: rp.fingerprint,
		FaultFingerprint:   faultFP(req.Faults),
		MakeSpan:           res.MakeSpan,
		Times:              summarizeTimes(res.Times),
		Messages:           res.Messages,
		BytesMoved:         res.Bytes,
		Collapse: CollapseInfo{
			Applied: res.Collapse.Applied,
			Classes: res.Collapse.Classes,
			Reason:  res.Collapse.Reason,
		},
	}
	if w.Kind == "stencil" {
		p.PerIteration = res.MakeSpan / float64(w.Iterations)
	}
	if !pt.scale.identity() {
		sc := pt.scale.normalized()
		p.Scale = &sc
	}
	if req.Options.PerRank {
		p.PerRank = res.Times
	}
	if rec != nil {
		tr, err := rec.Trace()
		if err != nil {
			return nil, fmt.Errorf("server: trace assembly: %v", err)
		}
		if req.Options.TraceView == "rollup" {
			p.Rollup, err = renderRollup(tr, req.Options.TraceTopK)
			if err != nil {
				return nil, fmt.Errorf("server: trace rollup: %v", err)
			}
		} else {
			p.CriticalPath = renderPath(tr)
			p.Breakdown = renderBreakdown(tr)
		}
	}
	body, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("server: rendering: %v", err)
	}
	return append(body, '\n'), nil
}

// faultFP returns the plan fingerprint for non-empty plans only, so the
// field stays absent from fault-free responses.
func faultFP(p *fault.Plan) string {
	if p.Empty() {
		return ""
	}
	return p.Fingerprint()
}

// summarizeTimes computes the deterministic order statistics of the per-rank
// times (nearest-rank quantiles over the sorted copy).
func summarizeTimes(times []float64) TimesSummary {
	if len(times) == 0 {
		return TimesSummary{}
	}
	sorted := sim.SortedCopy(times)
	sum := 0.0
	for _, t := range sorted {
		sum += t
	}
	q := func(f float64) float64 {
		i := int(math.Ceil(f*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	return TimesSummary{
		Min:  sorted[0],
		Mean: sum / float64(len(sorted)),
		P50:  q(0.50),
		P95:  q(0.95),
		Max:  sorted[len(sorted)-1],
	}
}

// renderPath converts a trace's critical path to the wire shape.
func renderPath(tr *trace.Trace) *PathInfo {
	cp := tr.CriticalPath()
	pi := &PathInfo{
		End:      cp.End,
		Rank:     cp.Rank,
		Hops:     len(cp.Hops),
		Compute:  cp.Compute,
		Send:     cp.Send,
		Wait:     cp.Wait,
		InFlight: cp.InFlight,
	}
	for _, hop := range cp.Hops {
		hi := HopInfo{Rank: hop.Rank, From: hop.From, To: hop.To, ViaPeer: -1}
		if hop.ViaPeer >= 0 {
			hi.ViaPeer = hop.ViaPeer
			hi.ViaSize = hop.ViaSize
		}
		pi.Path = append(pi.Path, hi)
	}
	return pi
}

// renderRollup converts a trace's aggregated rollup to the wire shape — the
// bounded-size trace payload whose size tracks supersteps and stages, not
// ranks or events.
func renderRollup(tr *trace.Trace, topK int) (*RollupInfo, error) {
	r, err := trace.RollupOf(tr, trace.RollupOptions{TopK: topK})
	if err != nil {
		return nil, err
	}
	ri := &RollupInfo{MakeSpan: r.MakeSpan, Events: r.Events}
	for _, cat := range trace.Categories {
		ri.Categories = append(ri.Categories, CategoryTotal{
			Category: cat.String(),
			Seconds:  r.ByCategory[cat],
		})
	}
	for _, s := range r.Steps {
		ri.Steps = append(ri.Steps, StepRollupInfo{
			Step:          s.Step,
			Compute:       s.ByCategory[trace.CatCompute],
			Send:          s.ByCategory[trace.CatSend],
			Straggler:     s.ByCategory[trace.CatStraggler],
			Latency:       s.ByCategory[trace.CatLatency],
			Messages:      s.Messages,
			Bytes:         s.Bytes,
			StragglerRank: s.Straggler,
		})
	}
	for _, s := range r.Stages {
		ri.Stages = append(ri.Stages, StageRollupInfo{
			Stage:   s.Stage,
			Events:  s.Events,
			Compute: s.ByCategory[trace.CatCompute],
			Send:    s.ByCategory[trace.CatSend],
			Wait: s.ByCategory[trace.CatStraggler] + s.ByCategory[trace.CatLatency] +
				s.ByCategory[trace.CatPort] + s.ByCategory[trace.CatAck],
			Messages: s.Messages,
			Bytes:    s.Bytes,
		})
	}
	for _, s := range r.TopSlack {
		ri.TopSlack = append(ri.TopSlack, SlackInfo{Rank: s.Rank, Slack: s.Slack})
	}
	return ri, nil
}

// renderBreakdown converts a trace's per-category totals to the wire shape,
// in the report order of trace.Categories.
func renderBreakdown(tr *trace.Trace) *BreakdownInfo {
	bd := tr.Breakdown()
	bi := &BreakdownInfo{MakeSpan: bd.MakeSpan}
	for _, cat := range trace.Categories {
		bi.Categories = append(bi.Categories, CategoryTotal{
			Category: cat.String(),
			Seconds:  bd.TotalByCategory(cat),
		})
	}
	return bi
}
