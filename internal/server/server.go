// Package server is the hbspd prediction service: an HTTP/JSON API that
// evaluates LogGP predictions for named machine profiles (or uploaded
// pairwise matrices), collective/BSP/stencil/op-stream workloads and
// optional fault plans, streaming sweep results as NDJSON.
//
// Production concerns handled here, not in the prediction engines:
//
//   - a bounded LRU result cache keyed by content fingerprints (profile,
//     fault plan) plus the normalized workload and options — identical
//     requests are answered byte-identically without re-evaluation;
//   - singleflight coalescing of concurrent identical evaluations;
//   - a global concurrency limiter with queue-depth load shedding (429 +
//     Retry-After) and per-request evaluation budgets (408 on expiry);
//   - a sweep is one unit of load: admitted once, its points evaluated in
//     order on the request's goroutine, each line flushed as it is done and
//     the stream ended by the first error line;
//   - graceful drain: Shutdown stops admitting (/healthz turns 503) and
//     lets in-flight evaluations finish.
package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a Server. The zero value of each field selects its default.
type Config struct {
	// MaxConcurrent bounds evaluations running at once (default 4).
	MaxConcurrent int
	// MaxQueue bounds evaluations waiting for a slot; beyond it requests are
	// shed with 429 (default 2×MaxConcurrent).
	MaxQueue int
	// CacheEntries bounds the result cache (default 4096; negative disables).
	// An entry holds one point's rendered reply plus at most one gzip copy
	// of it, made when a client that accepts gzip first asks for the point.
	CacheEntries int
	// MachineEntries bounds the machine cache (default 32; negative
	// disables). A preset or custom machine is O(P) — its placement; pairs
	// are priced on demand — but an uploaded one holds its four P×P matrices
	// (0.5 MB at P=128), so this knob is much smaller than CacheEntries.
	MachineEntries int
	// RetryAfter is the Retry-After value sent with shed responses, in
	// seconds (default 1).
	RetryAfter int
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.MachineEntries == 0 {
		c.MachineEntries = 32
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = 1
	}
	return c
}

// Server is the prediction service. Create one with New, mount it as an
// http.Handler, and call Shutdown to drain.
type Server struct {
	cfg       Config
	m         *metrics
	results   *lruCache // pointKey -> *rendered
	machines  *lruCache // (profile fingerprint, procs) -> *resolvedProfile
	schedules *lruCache // (kind, variant, procs, root, bytes) -> verified sched.Schedule
	flights   *flightGroup
	limit     *limiter
	mux       *http.ServeMux
	draining  atomic.Bool
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := &metrics{}
	s := &Server{
		cfg:       cfg,
		m:         m,
		results:   newLRU(cfg.CacheEntries),
		machines:  newLRU(cfg.MachineEntries),
		schedules: newLRU(256),
		flights:   newFlightGroup(),
		limit:     newLimiter(cfg.MaxConcurrent, cfg.MaxQueue, m),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/v1/presets", s.handlePresets)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain flips the server into draining mode: /healthz turns 503 (so load
// balancers stop routing here) and new predictions are refused with the shed
// error; in-flight requests finish normally. The http.Server owning the
// listener performs the actual connection teardown via its own Shutdown.
func (s *Server) Drain() { s.draining.Store(true) }

// Metrics returns a point-in-time counter snapshot.
func (s *Server) Metrics() MetricsSnapshot { return s.m.snapshot() }

// handleHealthz reports liveness — 200 while serving, 503 while draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"status":"draining"}`+"\n")
		return
	}
	io.WriteString(w, `{"status":"ok"}`+"\n")
}

// handleMetrics renders the counters as JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.m.snapshot())
}

// handlePresets lists the profile presets.
func (s *Server) handlePresets(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Presets []string `json:"presets"`
	}{Presets: presetNames()})
}

// maxBodyBytes bounds request bodies. Uploaded matrices are the big case: at
// 13 bytes a number ("2.800000e-05,") 64 MB holds four matrices of P ≈ 1100.
// It is also what bounds an upload's dimension: the matrix scanner allocates
// no more than four times the bytes it is handed.
const maxBodyBytes = 64 << 20

// bodies recycles request-body buffers. A buffer that grew beyond
// maxPooledBody is dropped instead of returned, so one large upload does not
// stay resident behind a pool of small requests.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// readBody reads the request body, refusing more than maxBodyBytes, into a
// pooled buffer sized from Content-Length when the client sent one. The
// caller hands the buffer to releaseBody when it is done with the bytes.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	buf := bodies.Get().(*bytes.Buffer)
	buf.Reset()
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	return buf, err
}

func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodies.Put(buf)
	}
}

// handlePredict serves POST /v1/predict.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, badRequestf("use POST"))
		return
	}
	s.m.requests.Add(1)
	if s.draining.Load() {
		s.fail(w, fmt.Errorf("%w: draining", errShed))
		return
	}

	// Nothing decoded points into the body (a Matrix owns its storage,
	// encoding/json copies strings), so the buffer goes back before evaluation.
	var req PredictRequest
	body, err := readBody(w, r)
	if err == nil {
		err = decodeRequest(body, &req)
	}
	releaseBody(body)
	if err != nil {
		s.fail(w, badRequestf("decoding body: %v", err))
		return
	}
	if err := normalizeOptions(&req.Options); err != nil {
		s.fail(w, err)
		return
	}
	pts, err := expandPoints(&req)
	if err != nil {
		s.fail(w, err)
		return
	}

	// The request budget maps onto both teardown paths: the context (so
	// running evaluations abort) and the per-point run deadline (so the
	// overrun is reported as ErrDeadline → 408 rather than a bare abort).
	// The context gets a grace margin so the deadline classification wins.
	ctx := r.Context()
	var deadline time.Time
	if req.Options.BudgetMs > 0 {
		budget := time.Duration(req.Options.BudgetMs) * time.Millisecond
		deadline = time.Now().Add(budget)
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget+250*time.Millisecond)
		defer cancel()
	}

	// Trace, per-rank and sweep payloads grow with P and point count; gzip
	// them for clients that ask. Vary is set regardless of the negotiation
	// outcome so shared caches key on the request encoding.
	w.Header().Set("Vary", "Accept-Encoding")
	zip := acceptsGzip(r)
	if req.Sweep == nil {
		s.servePoint(w, ctx, &req, pts[0], deadline, zip)
		return
	}
	s.serveSweep(w, ctx, &req, pts, deadline, zip)
}

// gzipMinBytes is the payload size below which single-point responses skip
// compression: tiny JSON bodies gain nothing and the header overhead loses.
const gzipMinBytes = 1 << 10

// acceptsGzip reports whether the request's Accept-Encoding (RFC 9110
// §12.5.3) allows a gzip-encoded response. Codings and parameter names are
// case-insensitive, x-gzip is gzip (§8.4.1.3), a weight of zero in any
// spelling refuses, and a coding named explicitly outranks the wildcard. A
// weight that does not parse refuses too: identity is always safe.
func acceptsGzip(r *http.Request) bool {
	named, wild := false, false
	for _, member := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		coding, params, _ := strings.Cut(member, ";")
		coding = strings.TrimSpace(coding)
		ok := true
		for _, param := range strings.Split(params, ";") {
			name, value, _ := strings.Cut(param, "=")
			if strings.EqualFold(strings.TrimSpace(name), "q") {
				q, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
				ok = err == nil && q > 0
			}
		}
		switch {
		case strings.EqualFold(coding, "gzip"), strings.EqualFold(coding, "x-gzip"):
			if !ok {
				return false
			}
			named = true
		case coding == "*":
			wild = ok
		}
	}
	return named || wild
}

// gzipResponse wraps a ResponseWriter with on-the-fly gzip encoding, for
// sweeps: a single point's reply writes its cached encoding (Server.gzipped)
// instead. Flush forwards through both layers, keeping the per-line streaming
// of sweep responses.
type gzipResponse struct {
	http.ResponseWriter
	gz *gzip.Writer
}

// gzipWriters recycles compressors across responses: a gzip.Writer is ≈0.8 MB
// of tables, far more than everything else a compressed reply allocates.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// rendered is one point's result-cache value: its rendered NDJSON line and,
// once a request that accepts gzip has asked for it, the line's gzip
// encoding. A point answered plain only never pays for compression.
type rendered struct {
	body   []byte
	gzOnce sync.Once
	gz     []byte
}

// compress returns the gzip encoding of body at the default level, byte for
// byte what a gzipResponse writes for it. It is a variable so that a test can
// count compressions.
var compress = func(body []byte) []byte {
	var buf bytes.Buffer
	gz := gzipWriters.Get().(*gzip.Writer)
	gz.Reset(&buf)
	gz.Write(body) // a bytes.Buffer does not fail
	gz.Close()
	gzipWriters.Put(gz)
	return bytes.Clone(buf.Bytes()) // the cache keeps no slack
}

// gzipped returns r's gzip encoding, compressing its body on the first call:
// hits, coalesced followers and the miss that filled the entry all share the
// one encoding. /metrics counts which of the two each call did.
func (s *Server) gzipped(r *rendered) []byte {
	computed := false
	r.gzOnce.Do(func() { r.gz, computed = compress(r.body), true })
	if computed {
		s.m.gzipComputed.Add(1)
	} else {
		s.m.gzipReused.Add(1)
	}
	return r.gz
}

func newGzipResponse(w http.ResponseWriter) *gzipResponse {
	w.Header().Set("Content-Encoding", "gzip")
	gz := gzipWriters.Get().(*gzip.Writer)
	gz.Reset(w)
	return &gzipResponse{ResponseWriter: w, gz: gz}
}

func (g *gzipResponse) Write(b []byte) (int, error) { return g.gz.Write(b) }

func (g *gzipResponse) Flush() {
	g.gz.Flush()
	if f, ok := g.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Close ends the gzip stream and returns the compressor to the pool; one
// whose Close failed is dropped instead.
func (g *gzipResponse) Close() error {
	err := g.gz.Close()
	if err == nil {
		gzipWriters.Put(g.gz)
	}
	return err
}

// servePoint answers a single-point request with one JSON object. Cache hits
// bypass the limiter entirely — the hot path of repeated queries.
func (s *Server) servePoint(w http.ResponseWriter, ctx context.Context, req *PredictRequest, pt point, deadline time.Time, zip bool) {
	r, how, err := s.evalPoint(ctx, req, pt, deadline, func(ctx context.Context) (func(), error) {
		if err := s.limit.acquire(ctx); err != nil {
			return nil, err
		}
		return s.limit.release, nil
	}, nil)
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Hbspd-Cache", how)
	if zip && len(r.body) >= gzipMinBytes {
		w.Header().Set("Content-Encoding", "gzip")
		w.Write(s.gzipped(r))
		return
	}
	w.Write(r.body)
}

// serveSweep streams a sweep as NDJSON, one PredictPoint per line in
// row-major axis order. The whole sweep is admitted as one unit of load, and
// its points are evaluated in that order on the request's goroutine, each
// line flushed as soon as its point is done; a sweep of several points reads
// its noise draws through one memo (sweepDraws). A point error ends the stream
// with a final error line carrying the documented error shape; no point after
// it is evaluated.
func (s *Server) serveSweep(w http.ResponseWriter, ctx context.Context, req *PredictRequest, pts []point, deadline time.Time, zip bool) {
	if err := s.limit.acquire(ctx); err != nil {
		s.fail(w, err)
		return
	}
	defer s.limit.release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Hbspd-Points", fmt.Sprint(len(pts)))
	var out io.Writer = w
	flush := func() {}
	if flusher, ok := w.(http.Flusher); ok {
		flush = flusher.Flush
	}
	if zip {
		gw := newGzipResponse(w)
		defer gw.Close()
		out, flush = gw, gw.Flush
	}
	admitted := func(context.Context) (func(), error) { return func() {}, nil }
	var draws *sweepDraws
	if len(pts) > 1 {
		draws = &sweepDraws{}
		for _, pt := range pts {
			draws.ranks = max(draws.ranks, pt.procs)
		}
		defer func() {
			if draws.d != nil {
				s.m.observeDraws(draws.d.Stats())
			}
		}()
	}
	for _, pt := range pts {
		r, _, err := s.evalPoint(ctx, req, pt, deadline, admitted, draws)
		if err != nil {
			// A stream answers 200 whatever its points do; the error rides
			// as the final line.
			line, _ := renderError(err)
			code, _ := classify(err)
			s.m.countError(code)
			out.Write(append(line, '\n'))
			return
		}
		out.Write(r.body)
		flush()
	}
}

// fail writes the documented JSON error shape with its HTTP status.
func (s *Server) fail(w http.ResponseWriter, err error) {
	body, status := renderError(err)
	code, _ := classify(err)
	s.m.countError(code)
	w.Header().Set("Content-Type", "application/json")
	if errors.Is(err, errShed) {
		w.Header().Set("Retry-After", fmt.Sprint(s.cfg.RetryAfter))
	}
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}
