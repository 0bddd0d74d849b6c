package server

import (
	"sync/atomic"

	"hbsp/internal/platform"
)

// evalBuckets are the upper bounds, in nanoseconds, of the evaluation-latency
// histogram: powers of four from 1 µs to ~17 s plus a catch-all. Fixed
// buckets keep /metrics rendering allocation-free and deterministic.
var evalBuckets = [...]int64{
	1_000, 4_000, 16_000, 64_000, 256_000,
	1_000_000, 4_000_000, 16_000_000, 64_000_000, 256_000_000,
	1_000_000_000, 4_000_000_000, 16_000_000_000,
}

// metrics holds the server's counters. All fields are updated with atomics;
// Snapshot renders a consistent-enough point-in-time view (counters are
// monotonic, so slight skew between fields is acceptable for an operational
// endpoint).
type metrics struct {
	requests    atomic.Int64 // HTTP requests accepted on /v1/predict
	points      atomic.Int64 // prediction points served (1 per single request, N per sweep)
	cacheHits   atomic.Int64 // points answered from the result cache
	cacheMisses atomic.Int64 // points that had to be evaluated
	coalesced   atomic.Int64 // points that piggybacked on an identical in-flight evaluation
	shed        atomic.Int64 // requests rejected by the load shedder (429)
	inFlight    atomic.Int64 // currently admitted evaluations (gauge)
	queued      atomic.Int64 // evaluations waiting for a slot (gauge)

	routes [numRoutes]atomic.Int64 // completed evaluations by the route that ran them

	sweepPointsReused atomic.Int64 // schedule points run on the evaluator their request already held
	partitionsReused  atomic.Int64 // collapse decisions those evaluators reused

	drawsComputed atomic.Int64 // noise draws sweep memos computed
	drawsReused   atomic.Int64 // stored noise draws sweep memos handed out in windows

	sweepLines   atomic.Int64 // NDJSON lines sweeps wrote
	sweepFlushes atomic.Int64 // flushes sweeps issued, after a line or by the timer

	gzipComputed atomic.Int64 // cached replies compressed for a gzip request
	gzipReused   atomic.Int64 // gzip replies written from a stored encoding

	errInvalidRequest atomic.Int64
	errInvalidMachine atomic.Int64
	errInvalidFault   atomic.Int64
	errDeadline       atomic.Int64
	errAborted        atomic.Int64
	errInternal       atomic.Int64

	evalCount  atomic.Int64
	evalSumNs  atomic.Int64
	evalBucket [len(evalBuckets) + 1]atomic.Int64
}

// observeEval records one evaluation's wall time in the histogram.
func (m *metrics) observeEval(ns int64) {
	m.evalCount.Add(1)
	m.evalSumNs.Add(ns)
	for i, ub := range evalBuckets {
		if ns <= ub {
			m.evalBucket[i].Add(1)
			return
		}
	}
	m.evalBucket[len(evalBuckets)].Add(1)
}

// observeDraws adds one sweep request's memo counts, once, when it ends.
func (m *metrics) observeDraws(s platform.DrawStats) {
	m.drawsComputed.Add(s.Stored + s.Direct)
	m.drawsReused.Add(s.Hits)
}

// MetricsSnapshot is the JSON shape of /metrics. Field order (struct order)
// is the rendering order.
type MetricsSnapshot struct {
	Requests    int64 `json:"requests"`
	Points      int64 `json:"points"`
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
	Coalesced   int64 `json:"coalesced"`
	Shed        int64 `json:"shed"`
	InFlight    int64 `json:"inFlight"`
	Queued      int64 `json:"queued"`

	// SweepPointsReused counts the schedule points that ran on the sweep
	// evaluator their request already held (a request makes one at its
	// first such point), and PartitionsReused the points whose collapse
	// decision that evaluator had memoized.
	SweepPointsReused int64 `json:"sweepPointsReused"`
	PartitionsReused  int64 `json:"partitionsReused"`

	// Routes counts completed evaluations by the body that ran them (routeOf):
	// a sweep evaluator, the direct BSP walk, the compiled program, or rank
	// goroutines under engine "concurrent". They sum to evalNs.count.
	Routes struct {
		Swept      int64 `json:"swept"`
		DirectBSP  int64 `json:"directBsp"`
		Program    int64 `json:"program"`
		Concurrent int64 `json:"concurrent"`
	} `json:"routes"`

	// SweepDraws counts the noise draws of the memo a sweep of several points
	// on a noisy profile-backed machine reads through: draws its rows
	// computed, and stored draws it handed out. A later point reads a rank's
	// stored draws through windows, and each window counts the draws it holds
	// from the one looked up to the end of the row's stored prefix or of the
	// window: the draws read when later points read at least what the first
	// stored (the same workload at another payload or scale), more otherwise.
	SweepDraws struct {
		Computed int64 `json:"computed"`
		Reused   int64 `json:"reused"`
	} `json:"sweepDraws"`

	// SweepStream counts the NDJSON lines sweeps wrote and the flushes they
	// issued: one after a stream's first line, then one per timer firing
	// (at most one a millisecond); a stream's end is no flush of its own.
	SweepStream struct {
		Lines   int64 `json:"lines"`
		Flushes int64 `json:"flushes"`
	} `json:"sweepStream"`

	// Gzip counts the compressed single-point replies: encodings a cache
	// entry computed (one at most per entry, at its first gzip request), and
	// replies that wrote a stored one. Sweeps compress as they stream and
	// count in neither.
	Gzip struct {
		Computed int64 `json:"computed"`
		Reused   int64 `json:"reused"`
	} `json:"gzip"`

	// Uploads counts the upload table's matrices (uploads.go): those a
	// lookup scanned, those it handed back from the table instead, and the
	// entries whose matrix a cached machine or a request in flight still
	// holds. Bodies the handler leaves to encoding/json count in neither.
	Uploads struct {
		Scanned int64 `json:"scanned"`
		Reused  int64 `json:"reused"`
		Live    int64 `json:"live"`
	} `json:"uploads"`

	Errors struct {
		InvalidRequest int64 `json:"invalidRequest"`
		InvalidMachine int64 `json:"invalidMachine"`
		InvalidFault   int64 `json:"invalidFault"`
		Deadline       int64 `json:"deadline"`
		Aborted        int64 `json:"aborted"`
		Internal       int64 `json:"internal"`
	} `json:"errors"`

	Eval struct {
		Count int64 `json:"count"`
		SumNs int64 `json:"sumNs"`
		// Buckets[i] counts evaluations with wall time <= BucketNs[i];
		// the final entry (paired with bucketNs +Inf) is the overflow.
		BucketNs []int64 `json:"bucketNs"`
		Buckets  []int64 `json:"buckets"`
	} `json:"evalNs"`
}

// snapshot renders the counters.
func (m *metrics) snapshot() MetricsSnapshot {
	var s MetricsSnapshot
	s.Requests = m.requests.Load()
	s.Points = m.points.Load()
	s.CacheHits = m.cacheHits.Load()
	s.CacheMisses = m.cacheMisses.Load()
	s.Coalesced = m.coalesced.Load()
	s.Shed = m.shed.Load()
	s.InFlight = m.inFlight.Load()
	s.Queued = m.queued.Load()
	s.SweepPointsReused = m.sweepPointsReused.Load()
	s.PartitionsReused = m.partitionsReused.Load()
	s.Routes.Swept = m.routes[routeSwept].Load()
	s.Routes.DirectBSP = m.routes[routeDirectBSP].Load()
	s.Routes.Program = m.routes[routeProgram].Load()
	s.Routes.Concurrent = m.routes[routeConcurrent].Load()
	s.SweepDraws.Computed = m.drawsComputed.Load()
	s.SweepDraws.Reused = m.drawsReused.Load()
	s.SweepStream.Lines = m.sweepLines.Load()
	s.SweepStream.Flushes = m.sweepFlushes.Load()
	s.Gzip.Computed = m.gzipComputed.Load()
	s.Gzip.Reused = m.gzipReused.Load()
	s.Errors.InvalidRequest = m.errInvalidRequest.Load()
	s.Errors.InvalidMachine = m.errInvalidMachine.Load()
	s.Errors.InvalidFault = m.errInvalidFault.Load()
	s.Errors.Deadline = m.errDeadline.Load()
	s.Errors.Aborted = m.errAborted.Load()
	s.Errors.Internal = m.errInternal.Load()
	s.Eval.Count = m.evalCount.Load()
	s.Eval.SumNs = m.evalSumNs.Load()
	s.Eval.BucketNs = append([]int64(nil), evalBuckets[:]...)
	s.Eval.Buckets = make([]int64, len(evalBuckets)+1)
	for i := range s.Eval.Buckets {
		s.Eval.Buckets[i] = m.evalBucket[i].Load()
	}
	return s
}
