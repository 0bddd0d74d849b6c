package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"

	"hbsp/fault"
)

// The wire types of the prediction API. A request names a machine profile, a
// workload, optional fault plan and options, and either a single point
// (procs at the top level) or sweep axes; the response is one PredictPoint
// JSON object, or an NDJSON stream of them for sweeps.

// PredictRequest is the body of POST /v1/predict.
type PredictRequest struct {
	Profile  ProfileSpec  `json:"profile"`
	Workload WorkloadSpec `json:"workload"`
	// Procs is the rank count of a single-point request; ignored when Sweep
	// lists process counts.
	Procs int `json:"procs,omitempty"`
	// Seed drives the machine's deterministic noise stream (default 1).
	Seed *int64 `json:"seed,omitempty"`
	// Faults is an optional fault scenario, validated against the machine.
	Faults *fault.Plan `json:"faults,omitempty"`
	// Options tune evaluation and response shape.
	Options OptionsSpec `json:"options"`
	// Sweep, when present, turns the request into an NDJSON stream over the
	// cross product of its axes.
	Sweep *SweepSpec `json:"sweep,omitempty"`
}

// ProfileSpec selects the machine profile: exactly one of Preset, Custom or
// Matrices.
type ProfileSpec struct {
	// Preset names a built-in profile (GET /v1/presets lists them). The
	// parametric presets "xeon-cluster" and "flat-cluster" scale with Nodes
	// (xeon-cluster defaults to ceil(procs/8) nodes, at least 8;
	// flat-cluster defaults to one node per rank).
	Preset string `json:"preset,omitempty"`
	// Nodes sizes the parametric presets.
	Nodes int `json:"nodes,omitempty"`
	// Custom is a full profile description validated through
	// cluster.Profile.Validate.
	Custom *CustomProfile `json:"custom,omitempty"`
	// Matrices uploads raw pairwise parameter matrices; the rank count is
	// fixed by the matrix dimension. Matrix machines carry no kernel-rate
	// model, so the sync and stencil workloads reject them.
	Matrices *MatrixProfile `json:"matrices,omitempty"`
}

// CustomProfile is an uploaded platform description. It builds a
// cluster.Profile — core design resolved from a named preset core or an
// inline spec — and is validated through Profile.Validate, so structural
// errors surface exactly like a broken preset would at hbsp.New.
type CustomProfile struct {
	Name     string       `json:"name"`
	Topology TopologySpec `json:"topology"`
	// Policy is "roundrobin" (default) or "block".
	Policy string `json:"policy,omitempty"`
	// Core names a built-in core design ("xeon-quad", "opteron-hex"); leave
	// empty to use xeon-quad. CoreSpec overrides it with an inline design.
	Core     string    `json:"core,omitempty"`
	CoreSpec *CoreSpec `json:"coreSpec,omitempty"`
	// Links holds per-distance-class parameters keyed "socket", "node",
	// "network" and (for grouped topologies) "group".
	Links        map[string]LinkSpec `json:"links"`
	SelfOverhead float64             `json:"selfOverhead"`
	HeteroSpread float64             `json:"heteroSpread,omitempty"`
	NoiseRel     float64             `json:"noiseRel,omitempty"`
	Seed         int64               `json:"seed,omitempty"`
}

// TopologySpec mirrors cluster.Topology.
type TopologySpec struct {
	Nodes          int `json:"nodes"`
	SocketsPerNode int `json:"socketsPerNode"`
	CoresPerSocket int `json:"coresPerSocket"`
	NodesPerGroup  int `json:"nodesPerGroup,omitempty"`
}

// LinkSpec mirrors cluster.Link.
type LinkSpec struct {
	Latency  float64 `json:"latency"`
	Gap      float64 `json:"gap"`
	Beta     float64 `json:"beta"`
	Overhead float64 `json:"overhead"`
}

// CoreSpec is an inline core design.
type CoreSpec struct {
	Name          string      `json:"name"`
	ClockGHz      float64     `json:"clockGHz"`
	FlopsPerCycle float64     `json:"flopsPerCycle"`
	Levels        []LevelSpec `json:"levels"`
}

// LevelSpec is one memory-hierarchy level of a CoreSpec.
type LevelSpec struct {
	Name                 string  `json:"name"`
	CapacityBytes        float64 `json:"capacityBytes"`
	BandwidthBytesPerSec float64 `json:"bandwidthBytesPerSec"`
}

// MatrixProfile uploads the pairwise LogGP parameters directly: P×P latency
// and beta matrices (required), gap and overhead matrices (optional, zero
// default), the invocation overhead and an optional rank→NIC map (default:
// every rank its own NIC).
//
// Each Matrix is scanned once, by its own UnmarshalJSON (see Matrix), and
// keeps the first defect it met in document order — a negative element, a
// ragged row, a matrix that is not square — so a matrix with several defects
// reports the one that comes first in its text. Across the profile the
// report order is fixed, not textual: latency, the dimension against procs,
// beta, gap, overhead, a zero latency off the diagonal, selfOverhead, nic.
// As everywhere in encoding/json, keys match case-insensitively and the last
// of a repeated key wins.
type MatrixProfile struct {
	Latency      Matrix  `json:"latency,omitzero"`
	Gap          Matrix  `json:"gap,omitzero"`
	Beta         Matrix  `json:"beta,omitzero"`
	Overhead     Matrix  `json:"overhead,omitzero"`
	SelfOverhead float64 `json:"selfOverhead"`
	NIC          []int   `json:"nic,omitempty"`
}

// WorkloadSpec names the workload to predict.
//
// Kinds:
//
//	barrier        one execution of a barrier schedule (Variant:
//	               dissemination | tree | linear, default dissemination)
//	broadcast      rooted data collective (Root, Bytes)
//	reduce         rooted data collective (Root, Bytes)
//	allreduce      data collective (Bytes)
//	allgather      data collective (Bytes)
//	totalexchange  all-to-all personalized exchange (Bytes per block)
//	sync           Supersteps BSP supersteps of skewed compute ended by the
//	               count total exchange (Variant: dissemination | schedule)
//	stencil        the Jacobi heat-equation kernel (Grid, Iterations)
//	program        an uploaded per-rank op-stream (Ranks)
type WorkloadSpec struct {
	Kind    string `json:"kind"`
	Variant string `json:"variant,omitempty"`
	// Bytes is the per-contribution payload of the data collectives
	// (default 8).
	Bytes int `json:"bytes,omitempty"`
	// Root is the root rank of broadcast/reduce (default 0).
	Root int `json:"root,omitempty"`
	// Supersteps is the superstep count of the sync workload (default 3).
	Supersteps int `json:"supersteps,omitempty"`
	// ComputeSeconds is the base compute interval per superstep of the sync
	// workload; ranks are skewed across four classes (default 5e-6).
	ComputeSeconds float64 `json:"computeSeconds,omitempty"`
	// Grid and Iterations configure the stencil workload (defaults 128, 2).
	Grid       int `json:"grid,omitempty"`
	Iterations int `json:"iterations,omitempty"`
	// Ranks is the program workload's op-stream, one instruction list per
	// rank. Request slots are numbered per rank in isend/irecv order and
	// named by "wait" ops through Req.
	Ranks [][]OpSpec `json:"ranks,omitempty"`
}

// OpSpec is one instruction of a program workload.
type OpSpec struct {
	// Op is "compute", "isend", "irecv", "post" or "wait".
	Op      string  `json:"op"`
	Seconds float64 `json:"seconds,omitempty"`
	To      int     `json:"to,omitempty"`
	From    int     `json:"from,omitempty"`
	Tag     int     `json:"tag,omitempty"`
	Bytes   int     `json:"bytes,omitempty"`
	Req     int     `json:"req,omitempty"`
}

// OptionsSpec tunes evaluation and response shape.
type OptionsSpec struct {
	// AckSends mirrors hbsp.WithAckSends (default true).
	AckSends *bool `json:"ackSends,omitempty"`
	// Engine is "auto" (default) or "concurrent".
	Engine string `json:"engine,omitempty"`
	// Collapse is "auto" (default) or "off".
	Collapse string `json:"collapse,omitempty"`
	// BudgetMs bounds the evaluation wall time of the request; exceeding it
	// returns the deadline error shape with HTTP 408.
	BudgetMs int `json:"budgetMs,omitempty"`
	// PerRank includes the full per-rank time vector in each point.
	PerRank bool `json:"perRank,omitempty"`
	// Trace attaches a recorder and includes the critical path and the
	// per-category time breakdown in each point. Tracing forces per-rank
	// evaluation; which reason collapse then reports follows the precedence
	// documented on sim.Collapse.
	Trace bool `json:"trace,omitempty"`
	// TraceView selects the trace payload under Trace: "path" (default)
	// carries the critical path and category breakdown, "rollup" the
	// aggregated per-superstep/per-stage tables with the worst-slack
	// ranks — the bounded-size variant for large rank counts.
	TraceView string `json:"traceView,omitempty"`
	// TraceTopK bounds the rollup's worst-slack list (default 8).
	TraceTopK int `json:"traceTopK,omitempty"`
}

// SweepSpec is the cross product of sweep axes, evaluated in row-major order
// (procs outermost, then bytes, then scale).
type SweepSpec struct {
	Procs []int `json:"procs,omitempty"`
	Bytes []int `json:"bytes,omitempty"`
	// Scale lists LogGP parameter scalings applied to the profile's link
	// classes before instantiation; absent factors default to 1.
	Scale []ScaleSpec `json:"scale,omitempty"`
}

// ScaleSpec multiplies the profile's link parameters: every distance class'
// latency, gap, beta and overhead (and the self overhead for Overhead).
type ScaleSpec struct {
	Latency  float64 `json:"latency,omitempty"`
	Gap      float64 `json:"gap,omitempty"`
	Beta     float64 `json:"beta,omitempty"`
	Overhead float64 `json:"overhead,omitempty"`
}

// normalized fills a ScaleSpec's absent factors with 1.
func (s ScaleSpec) normalized() ScaleSpec {
	if s.Latency == 0 {
		s.Latency = 1
	}
	if s.Gap == 0 {
		s.Gap = 1
	}
	if s.Beta == 0 {
		s.Beta = 1
	}
	if s.Overhead == 0 {
		s.Overhead = 1
	}
	return s
}

// identity reports whether the scaling is a no-op.
func (s ScaleSpec) identity() bool {
	n := s.normalized()
	return n.Latency == 1 && n.Gap == 1 && n.Beta == 1 && n.Overhead == 1
}

// PredictPoint is one prediction result: a single-point response body, or
// one NDJSON line of a sweep stream. Field order is the wire order; the
// rendering is deterministic, so identical request points produce
// byte-identical payloads (pinned by golden tests).
type PredictPoint struct {
	Workload string `json:"workload"`
	Variant  string `json:"variant,omitempty"`
	Procs    int    `json:"procs"`
	Bytes    int    `json:"bytes,omitempty"`
	Seed     int64  `json:"seed"`
	Engine   string `json:"engine"`

	ProfileFingerprint string     `json:"profileFingerprint"`
	FaultFingerprint   string     `json:"faultFingerprint,omitempty"`
	Scale              *ScaleSpec `json:"scale,omitempty"`

	// MakeSpan is the predicted makespan in virtual seconds.
	MakeSpan float64 `json:"makespan"`
	// Times summarizes the per-rank finishing times.
	Times TimesSummary `json:"times"`
	// PerRank is the full per-rank time vector (options.perRank).
	PerRank []float64 `json:"perRank,omitempty"`
	// Messages and BytesMoved are the run's traffic counters.
	Messages   int64 `json:"messages"`
	BytesMoved int64 `json:"bytesMoved"`
	// PerIteration is the per-iteration time of the stencil workload.
	PerIteration float64 `json:"perIteration,omitempty"`

	// Collapse reports the symmetry-collapse decision.
	Collapse CollapseInfo `json:"collapse"`

	// CriticalPath and Breakdown are included under options.trace with
	// traceView "path"; Rollup replaces them under traceView "rollup".
	CriticalPath *PathInfo      `json:"criticalPath,omitempty"`
	Breakdown    *BreakdownInfo `json:"breakdown,omitempty"`
	Rollup       *RollupInfo    `json:"rollup,omitempty"`
}

// TimesSummary are deterministic order statistics over the per-rank times.
type TimesSummary struct {
	Min  float64 `json:"min"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	Max  float64 `json:"max"`
}

// CollapseInfo mirrors sim.Collapse.
type CollapseInfo struct {
	Applied bool   `json:"applied"`
	Classes int    `json:"classes,omitempty"`
	Reason  string `json:"reason,omitempty"`
}

// PathInfo renders a trace's critical path.
type PathInfo struct {
	End      float64   `json:"end"`
	Rank     int       `json:"rank"`
	Hops     int       `json:"hops"`
	Compute  float64   `json:"compute"`
	Send     float64   `json:"send"`
	Wait     float64   `json:"wait"`
	InFlight float64   `json:"inFlight"`
	Path     []HopInfo `json:"path"`
}

// HopInfo is one residency of the critical path. ViaPeer is the rank the
// gating message that carried criticality here came from, -1 for the first
// hop.
type HopInfo struct {
	Rank    int     `json:"rank"`
	From    float64 `json:"from"`
	To      float64 `json:"to"`
	ViaPeer int     `json:"viaPeer"`
	ViaSize int     `json:"viaSize"`
}

// RollupInfo renders a trace's aggregated view: run totals, per-superstep
// and per-stage tables, and the worst-slack ranks. Its size depends on
// supersteps and stages, not on the rank or event count.
type RollupInfo struct {
	MakeSpan float64 `json:"makespan"`
	// Events counts the non-mark events the rollup aggregated.
	Events int `json:"events"`
	// Categories holds the run-wide per-category totals in report order.
	Categories []CategoryTotal   `json:"categories"`
	Steps      []StepRollupInfo  `json:"steps,omitempty"`
	Stages     []StageRollupInfo `json:"stages,omitempty"`
	TopSlack   []SlackInfo       `json:"topSlack,omitempty"`
}

// StepRollupInfo is one superstep's aggregate across all ranks.
type StepRollupInfo struct {
	Step      int     `json:"step"`
	Compute   float64 `json:"compute"`
	Send      float64 `json:"send"`
	Straggler float64 `json:"straggler"`
	Latency   float64 `json:"latency"`
	Messages  int64   `json:"messages"`
	Bytes     int64   `json:"bytes"`
	// StragglerRank set the step's boundary (-1 without boundary marks).
	StragglerRank int `json:"stragglerRank"`
}

// StageRollupInfo is one collective-schedule stage's aggregate.
type StageRollupInfo struct {
	Stage    int     `json:"stage"`
	Events   int     `json:"events"`
	Compute  float64 `json:"compute"`
	Send     float64 `json:"send"`
	Wait     float64 `json:"wait"`
	Messages int64   `json:"messages"`
	Bytes    int64   `json:"bytes"`
}

// SlackInfo is one rank's end-of-run slack behind the makespan.
type SlackInfo struct {
	Rank  int     `json:"rank"`
	Slack float64 `json:"slack"`
}

// BreakdownInfo renders a trace's per-category time totals.
type BreakdownInfo struct {
	MakeSpan float64 `json:"makespan"`
	// Categories holds the per-category totals in report order.
	Categories []CategoryTotal `json:"categories"`
}

// CategoryTotal is one breakdown category's total across all ranks.
type CategoryTotal struct {
	Category string  `json:"category"`
	Seconds  float64 `json:"seconds"`
}

// apiError is the documented JSON error shape: every error response is
// {"error": {"code": ..., "status": ..., "message": ...}}.
type apiError struct {
	Err apiErrorBody `json:"error"`
}

type apiErrorBody struct {
	// Code is one of "invalid_request", "invalid_machine", "invalid_fault",
	// "deadline", "shed", "aborted", "internal".
	Code string `json:"code"`
	// Status is the HTTP status the error was (or would have been) sent
	// with; mid-stream errors arrive as a final NDJSON line after a 200
	// header, so the status rides in the body.
	Status int `json:"status"`
	// Message is human-readable detail.
	Message string `json:"message"`
}

// canonical workload key: every field that selects a distinct prediction.
func (w *WorkloadSpec) cacheKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s/b%d/r%d/s%d/c%x/g%d/i%d",
		w.Kind, w.Variant, w.Bytes, w.Root, w.Supersteps,
		math.Float64bits(w.ComputeSeconds), w.Grid, w.Iterations)
	if len(w.Ranks) > 0 {
		h := sha256.New()
		var buf [8]byte
		u64 := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		u64(uint64(len(w.Ranks)))
		for _, ops := range w.Ranks {
			u64(uint64(len(ops)))
			for _, op := range ops {
				h.Write([]byte(op.Op))
				u64(math.Float64bits(op.Seconds))
				u64(uint64(int64(op.To)))
				u64(uint64(int64(op.From)))
				u64(uint64(int64(op.Tag)))
				u64(uint64(int64(op.Bytes)))
				u64(uint64(int64(op.Req)))
			}
		}
		fmt.Fprintf(&b, "/p%s", hex.EncodeToString(h.Sum(nil)[:16]))
	}
	return b.String()
}
