package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"hbsp"
	"hbsp/internal/bsp"
	"hbsp/internal/mpi"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
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
	// maxBudgetMs bounds budgetMs at one day, which keeps the budget plus the
	// context's grace margin inside a time.Duration.
	maxBudgetMs = 24 * 60 * 60 * 1000
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
	if o.BudgetMs < 0 || o.BudgetMs > maxBudgetMs {
		return badRequestf("budgetMs must be in [0,%d], got %d", maxBudgetMs, o.BudgetMs)
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

// resolver is what one predict request resolves once for all of its points.
// A point's machine and cache key are pure functions of the request and of
// the fields a sweep varies — procs, bytes, scale — so the resolver resolves
// a machine the first time a point asks for its (scale, procs) and hands
// every later point that asks again what a cache hit needs of it: the
// fingerprint and whether it is an upload. The fault plan's fingerprint and
// the key's fixed fields are computed once. An error is not kept: a later
// point that asks again fails again, in the same words. A single point is a
// request of one point.
//
// The machines themselves — an O(P) placement, or an upload's four P×P
// matrices — stay in the machine cache, whose bound is what keeps them
// live: the resolver holds the one its latest point resolved or ran on
// (cur), and a point that misses the result cache on another fetches its
// machine from the machine cache by key, or resolves it again if the cache
// has let it go. What it keeps per (scale, procs) is a fingerprint, under
// 200 bytes, so a sweep of maxSweepPoints distinct scales keeps under a MB.
// The resolver belongs to the request's goroutine and is dropped with the
// request; nothing a cache keeps points into it.
type resolver struct {
	s        *Server
	req      *PredictRequest
	seed     int64
	deadline time.Time
	draws    *sweepDraws // the sweep's noise-draw memo; nil for a single point

	planFP string // the fault plan's fingerprint
	// The point key's fixed fields (pointKey): the workload's after its
	// bytes, set by the first point that normalizes, and those after procs.
	keyFields, keyTail string

	machines map[profileAt]machineRef // nil for a single point
	cur      *resolvedProfile         // the machine at curAt
	curAt    profileAt
}

// profileAt is the point fields a resolved profile depends on within one
// request.
type profileAt struct {
	scale ScaleSpec
	procs int
}

// machineRef is what a point answered from the result cache needs of its
// machine.
type machineRef struct {
	fingerprint string
	upload      bool // matrices: no noise model to seed
}

// newResolver starts resolving a request whose points are pts; the points
// evaluate before deadline (zero: no budget). A request of several points
// keeps what its points resolve and reads its noise draws through one memo
// (sweepDraws), whose counts close reports.
func (s *Server) newResolver(req *PredictRequest, pts []point, deadline time.Time) *resolver {
	r := &resolver{s: s, req: req, seed: 1, deadline: deadline, planFP: req.Faults.Fingerprint()}
	if req.Seed != nil {
		r.seed = *req.Seed
	}
	if len(pts) > 1 { // a single point asks for its machine once: nothing to keep
		r.draws = &sweepDraws{}
		for _, pt := range pts {
			r.draws.ranks = max(r.draws.ranks, pt.procs)
		}
		r.machines = make(map[profileAt]machineRef)
	}
	o := &req.Options
	ack := true
	if o.AckSends != nil {
		ack = *o.AckSends
	}
	r.keyTail = fmt.Sprintf("/seed%d/ack%t/%s/%s/pr%t/tr%t/tv%s/tk%d",
		r.seed, ack, o.Engine, o.Collapse, o.PerRank, o.Trace, o.TraceView, o.TraceTopK)
	return r
}

// close ends the request: its sweep memo's counts reach /metrics.
func (r *resolver) close() {
	if r.draws != nil && r.draws.d != nil {
		r.s.m.observeDraws(r.draws.d.Stats())
	}
}

// machine returns what a point at scale and procs needs of its machine to be
// looked up, resolving the machine (resolveProfile) the first time it is
// asked for; that machine becomes cur.
func (r *resolver) machine(scale ScaleSpec, procs int) (machineRef, error) {
	at := profileAt{scale, procs}
	if ref, ok := r.machines[at]; ok {
		return ref, nil
	}
	rp, err := r.s.resolveProfile(&r.req.Profile, scale, procs)
	if err != nil {
		return machineRef{}, err
	}
	r.cur, r.curAt = rp, at
	ref := machineRef{fingerprint: rp.fingerprint, upload: rp.cluster == nil}
	if r.machines != nil {
		r.machines[at] = ref
	}
	return ref, nil
}

// resolved returns the machine a point at scale and procs runs on, ref
// being what machine returned for it: cur, if that is the one, or else the
// machine cache's entry under ref's fingerprint, or the machine resolved
// again; it becomes cur.
func (r *resolver) resolved(scale ScaleSpec, procs int, ref machineRef) (*resolvedProfile, error) {
	at := profileAt{scale, procs}
	if r.cur != nil && r.curAt == at {
		return r.cur, nil
	}
	var rp *resolvedProfile
	if cached, ok := r.s.machines.Get(machineKey(ref.fingerprint, procs)); ok {
		rp = cached.(*resolvedProfile)
	} else {
		var err error
		if rp, err = r.s.resolveProfile(&r.req.Profile, scale, procs); err != nil {
			return nil, err
		}
	}
	r.cur, r.curAt = rp, at
	return rp, nil
}

// pointKey is the canonical cache key of one point: everything a prediction
// depends on. The profile enters through its content fingerprint (so two
// spellings of the same machine share an entry), the fault plan through its
// fingerprint, the workload through its normalized fields (w, which the
// request fixes but for its bytes), then the point's procs and the request's
// seed and options:
//
//	point/<profile>/<plan>/<kind>/<variant>/b<bytes>/<workload fields>/p<procs>/seed…/tk<topK>
//
// Only the profile fingerprint, the bytes and procs vary between a request's
// points; the rest is appended from the pieces the request fixed.
func (r *resolver) pointKey(profileFP string, w *WorkloadSpec, procs int) string {
	if r.keyFields == "" {
		r.keyFields = w.keyFields()
	}
	var buf [512]byte // a key without op-streams is ≈300 bytes
	b := append(buf[:0], "point/"...)
	b = append(b, profileFP...)
	b = append(append(b, '/'), r.planFP...)
	b = append(append(b, '/'), w.Kind...)
	b = append(append(b, '/'), w.Variant...)
	b = strconv.AppendInt(append(b, "/b"...), int64(w.Bytes), 10)
	b = append(b, r.keyFields...)
	b = strconv.AppendInt(append(b, "/p"...), int64(procs), 10)
	b = append(b, r.keyTail...)
	return string(b)
}

// eval evaluates one point to its rendered NDJSON line (JSON object plus
// trailing newline), going through the result cache and the singleflight
// group; the entry it returns is the one the cache holds, so a gzip encoding
// made for any of its readers serves them all. admit is invoked before an
// actual evaluation runs (the handler passes the limiter for single-point
// requests and a no-op for sweeps, which are admitted once as a whole).
func (r *resolver) eval(ctx context.Context, pt point, admit func(context.Context) (func(), error)) (*rendered, string, error) {
	s, req := r.s, r.req
	w := req.Workload // copy: normalization and byte overrides are per-point
	k := kindOf(w.Kind)
	if pt.bytes != 0 {
		if k == nil || k.fields&fieldBytes == 0 {
			return nil, "", badRequestf("sweep.bytes applies to the data collectives, not %q", w.Kind)
		}
		w.Bytes = pt.bytes
	}
	if err := normalizeWorkload(&w, pt.procs); err != nil {
		return nil, "", err
	}

	ref, err := r.machine(pt.scale, pt.procs)
	if err != nil {
		return nil, "", err
	}
	if ref.upload && req.Seed != nil {
		return nil, "", badRequestf("seed applies to profile-backed machines; uploaded matrices carry no noise model")
	}
	key := r.pointKey(ref.fingerprint, &w, pt.procs)
	s.m.points.Add(1)
	if hit, ok := s.results.Get(key); ok {
		s.m.cacheHits.Add(1)
		return hit.(*rendered), "hit", nil
	}
	rp, err := r.resolved(pt.scale, pt.procs, ref)
	if err != nil {
		return nil, "", err
	}
	// What the machine cannot run is refused before the flight, in one
	// wording for every route: a fault plan it cannot host (compiled as the
	// run would compile it), then a static row on an upload.
	if _, err := simnet.CompileFaults(req.Faults, rp.machine); err != nil {
		return nil, "", fmt.Errorf("hbsp: %w", err)
	}
	if rp.cluster == nil && k.static != nil {
		return nil, "", fmt.Errorf("%w: the %s workload needs a kernel-rate model, which uploaded matrices do not carry", hbsp.ErrInvalidMachine, w.Kind)
	}

	res, shared, err := s.flights.Do(key, func() (*rendered, error) {
		// A flight that ended since the miss above left its result behind.
		if hit, ok := s.results.Get(key); ok {
			return hit.(*rendered), nil
		}
		release, err := admit(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		start := time.Now()
		body, err := r.evaluate(ctx, rp, &w, pt)
		if err != nil {
			return nil, err
		}
		s.m.observeEval(time.Since(start).Nanoseconds())
		res := &rendered{body: body}
		s.results.Put(key, res)
		return res, nil
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
	return res, how, nil
}

// route names the body a cache-missed point is evaluated on; /metrics counts
// completed evaluations under it.
type route int

const (
	routeSwept      route = iota // a schedule row: a sched.SweepEvaluator per point, no rank goroutines
	routeDirectBSP               // a static row: bsp.RunStatic, no goroutines
	routeProgram                 // the program row: sched.RunProgram's compiled evaluator
	routeConcurrent              // engine "concurrent": any row on rank goroutines
	numRoutes
)

// routeOf is the route decision. Engine "concurrent" asks for the
// message-by-message walk on rank goroutines, whatever the kind; otherwise a
// point takes its kind's shape: a schedule row is priced as one execution of
// its schedule, a static row as supersteps around their count exchange
// (bsp.Static), the program row compiled — traced or not, with or without
// faults.
func routeOf(o *OptionsSpec, k *kind) route {
	switch {
	case o.Engine == "concurrent":
		return routeConcurrent
	case k.comm != nil:
		return routeSwept
	case k.static != nil:
		return routeDirectBSP
	}
	return routeProgram
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
func (r *resolver) evaluate(ctx context.Context, rp *resolvedProfile, w *WorkloadSpec, pt point) (body []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			body, err = nil, fmt.Errorf("server: evaluation panicked: %v", p)
		}
	}()
	res, rec, err := r.run(ctx, rp, w, pt)
	if err != nil {
		return nil, err
	}
	// Operands that are each well formed can still drive a clock past
	// float64, which a reply cannot carry. The makespan plus every rank's
	// time bounds every time it renders (the mean, the trace's totals).
	sum := res.MakeSpan
	for _, t := range res.Times {
		sum += t
	}
	if math.IsInf(sum, 0) || math.IsNaN(sum) {
		return nil, badRequestf("%s at P=%d: virtual time overflows float64 (makespan %g); use smaller operands", w.Kind, pt.procs, res.MakeSpan)
	}
	if body, err = r.render(rp, w, pt, res, rec); err != nil {
		return nil, err
	}
	r.s.m.routes[routeOf(&r.req.Options, kindOf(w.Kind))].Add(1)
	return body, nil
}

// run evaluates one normalized point by calling the library directly and
// returns the run result and, for a traced point, the recorder holding its
// trace. The shape's input is built first — a schedule is verified before
// the budget left is read, so verification counts against it — then the one
// set of run options (runOptions), which every body reads.
func (r *resolver) run(ctx context.Context, rp *resolvedProfile, w *WorkloadSpec, pt point) (*sim.Result, *trace.Recorder, error) {
	k := kindOf(w.Kind)
	var (
		sch  sched.Schedule
		sync bsp.Synchronizer
		sp   *bsp.Static
		err  error
	)
	switch {
	case k.comm != nil:
		sch, err = r.s.schedule(w, pt.procs)
	case k.static != nil:
		if sync, err = r.s.synchronizer(k, w, pt.procs); err == nil {
			sp, err = k.static(w, pt.procs)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	o, err := runOptions(r.req, w, pt, r.deadline)
	if err != nil {
		return nil, nil, err
	}
	// A profile machine runs carrying the request's seed and reading its
	// draws through the sweep's memo, if any; an upload runs as it is.
	m, c := rp.machine, rp.cluster
	if c != nil {
		c = c.WithRunSeed(r.seed).WithTurnDraws(r.draws.of(&r.req.Options, rp, r.seed))
		m = c
	}
	concurrent := o.Engine == sim.EngineConcurrent
	var res *sim.Result
	switch {
	case k.comm != nil && concurrent:
		res, err = mpi.RunContext(ctx, m, func(c *mpi.Comm) error { return k.comm(c, sch, w.Root) }, o)
	case k.comm != nil:
		res, err = runSwept(ctx, m, sch, o)
	case k.static != nil && concurrent:
		res, err = bsp.RunContext(ctx, c, bsp.RunConfig{Sync: sync, Options: &o}, sp.Program())
	case k.static != nil:
		res, err = bsp.RunStatic(ctx, c, sync, sp, o)
	default:
		res, err = sched.RunProgram(ctx, m, buildProgram(w.Ranks), o)
	}
	return res, o.Recorder, err
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

// runSwept runs one execution of a verified schedule as one point on a
// sched.SweepEvaluator of its own: the fault plan compiled against the
// point's machine, the arena taken from and returned to sched's evaluator
// pool, the deadline and recorder fixed at construction. Nothing is kept
// between points, so points never wait on each other and no finished
// request's trace or machine stays reachable.
func runSwept(ctx context.Context, m sim.Machine, sch sched.Schedule, o sim.Options) (*sim.Result, error) {
	sw, err := sched.NewSweepEvaluator(m, sched.SweepOptions{
		AckSends:         o.AckSends,
		SymmetryCollapse: o.SymmetryCollapse,
		Faults:           o.Faults,
		// The gate-inline collective paths this replaces bill nothing on
		// stages where a rank has no edges, and tag stage s as the flood does,
		// so a traced point records the events a run on ranks would.
		ComputeEmpty: false,
		TagBase:      mpi.FloodTagBase,
		Recorder:     o.Recorder,
		Deadline:     o.Deadline,
	})
	if err != nil {
		return nil, err
	}
	defer sw.Release()
	return sw.Run(ctx, nil, sch, 1)
}

// runOptions translates the request options — acks, engine, collapse mode,
// fault plan — and the point's deadline and recorder (labelled, for a traced
// point) into the simulator options of one evaluation.
func runOptions(req *PredictRequest, w *WorkloadSpec, pt point, deadline time.Time) (sim.Options, error) {
	o := sim.DefaultOptions()
	left, err := budgetLeft(deadline)
	if err != nil {
		return o, err
	}
	if left > 0 {
		o.Deadline = left
	}
	if req.Options.AckSends != nil {
		o.AckSends = *req.Options.AckSends
	}
	if req.Options.Engine == "concurrent" {
		o.Engine = sim.EngineConcurrent
	}
	if req.Options.Collapse == "off" {
		o.SymmetryCollapse = sim.CollapseOff
	}
	if !req.Faults.Empty() {
		o.Faults = req.Faults
	}
	if req.Options.Trace {
		o.Recorder = trace.NewRecorder()
		o.Recorder.SetLabel(fmt.Sprintf("%s, P=%d", w.Kind, pt.procs))
	}
	return o, nil
}

// render renders an evaluated point on rp to its NDJSON line (JSON object
// plus trailing newline), the shared tail of every route.
func (r *resolver) render(rp *resolvedProfile, w *WorkloadSpec, pt point, res *sim.Result, rec *trace.Recorder) ([]byte, error) {
	req := r.req
	p := &PredictPoint{
		Workload:           w.Kind,
		Variant:            w.Variant,
		Procs:              pt.procs,
		Bytes:              w.Bytes,
		Seed:               r.seed,
		Engine:             req.Options.Engine,
		ProfileFingerprint: rp.fingerprint,
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
	// The fingerprint is rendered for non-empty plans only, so the field
	// stays absent from fault-free responses.
	if !req.Faults.Empty() {
		p.FaultFingerprint = r.planFP
	}
	if kindOf(w.Kind).fields&fieldGrid != 0 {
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
