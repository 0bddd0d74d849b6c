// Package trace is the public surface of the tracing and analysis
// subsystem: a Recorder that the simulator fills with per-event observations
// (message injections, receive completions, compute intervals, superstep and
// collective-stage boundaries), the merged deterministic Trace it yields,
// analysis passes (critical-path extraction, per-rank and per-superstep time
// breakdowns, straggler attribution, h-relation statistics), and exporters
// to Chrome trace-event JSON (loadable in chrome://tracing and Perfetto) and
// a compact text report.
//
// Attach a recorder to a session with hbsp.WithRecorder:
//
//	rec := trace.NewRecorder()
//	rec.SetLabel("my workload")
//	s, _ := hbsp.New(machine, hbsp.WithSeed(42), hbsp.WithRecorder(rec))
//	s.RunBSP(ctx, program)
//	tr, _ := rec.Trace()
//	trace.WriteReport(os.Stdout, tr, trace.ReportOptions{})
//	trace.WriteChrome(chromeFile, tr)
//
// Recording is lock-free on the simulator's hot path (per-rank append-only
// columnar lanes) and read in deterministic order afterwards, so two runs
// with the same seed produce byte-identical traces. A nil recorder
// (trace.Disabled) is the no-op fast path: its per-event cost is one pointer
// test, benchmarked by BenchmarkTraceOverhead at the repository root.
//
// Large runs do not need to hold their events in RAM. Recorder.SpillTo
// streams full column chunks to a writer during the run in a compact binary
// format, bounding resident recorder memory; OpenSpillFile reopens the file
// and every analysis and exporter accepts it through the same Source
// interface the in-RAM Trace satisfies:
//
//	rec.SpillTo(f, trace.SpillOptions{})
//	s.RunBSP(ctx, program)            // lanes stream to f as they fill
//	sp, _ := trace.OpenSpillFile(f.Name())
//	trace.WriteReport(os.Stdout, sp, trace.ReportOptions{})
//
// For very large traces the aggregated views — RollupOf (per-superstep and
// per-stage time/traffic tables), TopSlack (worst finish-slack ranks) and
// WriteChromeAuto (lane-sampled Chrome export under an event budget) — keep
// output sizes bounded while the full event stream stays on disk.
//
// Tracing interacts with symmetry collapse: a collapsed run executes one
// representative rank per equivalence class, but a trace must populate every
// rank's lane, so attaching a recorder disables collapse for that run and
// the result's Collapse diagnostic reports Reason == "trace". Large traced
// runs therefore pay full per-rank cost — that is exactly the regime SpillTo
// and the rollup exports exist for.
package trace

import (
	"io"

	itrace "hbsp/internal/trace"
)

// Recorder accumulates the events of one simulation run; create one with
// NewRecorder and attach it with hbsp.WithRecorder (or sim.Options.Recorder).
// A Recorder records one run at a time and must not be shared by concurrent
// runs — give each run of a parallel sweep its own recorder.
type Recorder = itrace.Recorder

// Trace is the merged, immutable view of one recorded run.
type Trace = itrace.Trace

// Source is the read interface shared by the in-RAM Trace and the
// spill-backed Spill: run metadata, a run summary, and per-rank column
// blocks. Every analysis and exporter in this package accepts a Source, so
// code paths need not care whether the trace lives in memory or on disk.
type Source = itrace.Source

// Summary is the run-level outcome a Source reports: per-rank finish times,
// makespan, traffic counters, superstep count and the run error, if any.
type Summary = itrace.Summary

// Cols is one rank's events in columnar (struct-of-arrays) layout — one
// parallel array per event field.
type Cols = itrace.Cols

// Event is one recorded observation; Kind classifies it.
type (
	Event = itrace.Event
	Kind  = itrace.Kind
)

// Event kinds.
const (
	KindCompute   = itrace.KindCompute
	KindSend      = itrace.KindSend
	KindRecvWait  = itrace.KindRecvWait
	KindSendWait  = itrace.KindSendWait
	KindAdvance   = itrace.KindAdvance
	KindSuperstep = itrace.KindSuperstep
	KindStage     = itrace.KindStage
	// KindFault is a fail-stop recovery interval injected by a fault.Plan.
	KindFault = itrace.KindFault
)

// Meta labels a recorded run (procs, seed, machine, workload).
type Meta = itrace.Meta

// Analysis result types.
type (
	// Breakdown attributes every rank's wall time to categories, overall
	// and per superstep.
	Breakdown     = itrace.Breakdown
	RankBreakdown = itrace.RankBreakdown
	StepBreakdown = itrace.StepBreakdown
	// Category buckets busy and blocked time in breakdowns.
	Category = itrace.Category
	// CriticalPath is the chain of compute intervals and gating messages
	// that determines the makespan.
	CriticalPath = itrace.CriticalPath
	PathHop      = itrace.PathHop
	// HRelation summarizes one superstep's communication relation.
	HRelation = itrace.HRelation
	// Straggler pairs a rank with its end-of-run slack.
	Straggler = itrace.Straggler
	// Rollup is the aggregated view of a trace: per-superstep and
	// per-stage time and traffic tables plus the worst-slack ranks,
	// computed in one streaming pass (RollupOf).
	Rollup      = itrace.Rollup
	StepRollup  = itrace.StepRollup
	StageRollup = itrace.StageRollup
	// RollupOptions tune RollupOf (TopK bounds the straggler list).
	RollupOptions = itrace.RollupOptions
)

// Breakdown categories, in report order (also see Categories).
const (
	CatCompute   = itrace.CatCompute
	CatSend      = itrace.CatSend
	CatStraggler = itrace.CatStraggler
	CatLatency   = itrace.CatLatency
	CatPort      = itrace.CatPort
	CatAck       = itrace.CatAck
	CatAdvance   = itrace.CatAdvance
	CatSkew      = itrace.CatSkew
)

// Categories lists all breakdown categories in report order.
var Categories = itrace.Categories

// Disabled is the nil recorder: attaching it records nothing and costs one
// pointer test per event.
var Disabled = itrace.Disabled

// Errors of the recorder lifecycle and of reading a spill back.
var (
	// ErrNoRun is returned by Recorder.Trace before a run was recorded.
	ErrNoRun = itrace.ErrNoRun
	// ErrUnclean is returned by Recorder.Trace when the run's teardown may
	// have left rank goroutines running (deadline with an uninterruptible
	// rank); such lanes cannot be read safely.
	ErrUnclean = itrace.ErrUnclean
	// ErrSpilled is returned by Recorder.Trace after a spilled run: the
	// events streamed to the SpillTo writer and are no longer in RAM —
	// open the spill file (OpenSpillFile) instead.
	ErrSpilled = itrace.ErrSpilled
	// ErrCorruptSpill is wrapped by every error OpenSpill, OpenSpillFile and
	// the analyses return for a spill file that is truncated, damaged or
	// inconsistent with itself; such a file is an error, never a panic.
	ErrCorruptSpill = itrace.ErrCorruptSpill
)

// Spill types: SpillTo streams a run's lanes to a writer in a compact,
// versioned binary format; OpenSpill/OpenSpillFile reopen it as a Source.
type (
	// SpillOptions tune Recorder.SpillTo (ChunkEvents bounds per-lane
	// resident events; the default targets ~64 MB total across lanes).
	SpillOptions = itrace.SpillOptions
	// Spill is a reopened spill file; it satisfies Source, so every
	// analysis and exporter works on it directly, and its Trace method
	// materializes an in-RAM Trace when the run is small enough.
	Spill = itrace.Spill
	// SpillReadStats is what Spill.ReadStats reports: chunks decoded, bytes
	// read and chunk-cache hits since the file was opened.
	SpillReadStats = itrace.SpillReadStats
)

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return itrace.NewRecorder() }

// ReportOptions tune WriteReport.
type ReportOptions = itrace.ReportOptions

// WriteReport renders the compact text report of a trace: metadata, time
// breakdowns, per-superstep straggler attribution, h-relation statistics and
// the critical path. The output is a pure function of the trace.
func WriteReport(w io.Writer, src Source, opts ReportOptions) error {
	return itrace.WriteReport(w, src, opts)
}

// WriteEvents dumps the event stream, one line per event, in the
// deterministic merge order, without materializing the merged slice.
func WriteEvents(w io.Writer, src Source) error { return itrace.WriteEvents(w, src) }

// WriteChrome exports the trace in Chrome trace-event JSON, loadable in
// chrome://tracing and Perfetto; the output of a deterministic trace is
// byte-identical across runs.
func WriteChrome(w io.Writer, src Source) error { return itrace.WriteChrome(w, src) }

// ChromeOptions bound WriteChromeAuto: MaxEvents is the full-export budget
// (DefaultChromeBudget when zero), MaxLanes and TopK shape the downsampled
// export.
type ChromeOptions = itrace.ChromeOptions

// DefaultChromeBudget is the event count above which WriteChromeAuto
// downsamples instead of exporting every lane.
const DefaultChromeBudget = itrace.DefaultChromeBudget

// WriteChromeAuto writes the full Chrome export when the trace fits the
// event budget and a lane-sampled one (critical-path rank, worst-slack
// ranks, a stride of the rest, plus an aggregate counter track) otherwise.
// It reports whether the export was downsampled.
func WriteChromeAuto(w io.Writer, src Source, opts ChromeOptions) (bool, error) {
	return itrace.WriteChromeAuto(w, src, opts)
}

// WriteSpill writes the canonical spill-format serialization of src: lanes
// in rank order, fixed-size chunks, byte-identical for identical content
// regardless of how src was produced.
func WriteSpill(w io.Writer, src Source) error { return itrace.WriteSpill(w, src) }

// OpenSpill opens a spill image for reading; it stays valid as long as r is.
func OpenSpill(r io.ReaderAt, size int64) (*Spill, error) { return itrace.OpenSpill(r, size) }

// OpenSpillFile opens a spill file written by Recorder.SpillTo or
// WriteSpill. Close the returned Spill when done.
func OpenSpillFile(path string) (*Spill, error) { return itrace.OpenSpillFile(path) }

// Iter iterates a Source's events in the deterministic merged order (a
// k-way merge over lanes) without materializing the merged slice.
type Iter = itrace.Iter

// NewIter returns an iterator over src's events in merged order.
func NewIter(src Source) (*Iter, error) { return itrace.NewIter(src) }

// NumEventsOf returns the total event count of a Source.
func NumEventsOf(src Source) int { return itrace.NumEventsOf(src) }

// RollupOf aggregates src in one streaming pass: run, per-superstep and
// per-stage category times and traffic, plus the TopK worst-slack ranks.
func RollupOf(src Source, opts RollupOptions) (*Rollup, error) { return itrace.RollupOf(src, opts) }

// WriteRollup renders a rollup as a deterministic text table.
func WriteRollup(w io.Writer, r *Rollup) error { return itrace.WriteRollup(w, r) }

// TopSlack returns the k ranks with the largest end-of-run slack, worst
// first, without sorting all P ranks.
func TopSlack(src Source, k int) []Straggler { return itrace.TopSlack(src, k) }

// Streaming analysis entry points: each runs in a single pass over a Source
// and matches the corresponding Trace method bit for bit.
var (
	BreakdownOf    = itrace.BreakdownOf
	CriticalPathOf = itrace.CriticalPathOf
	HRelationsOf   = itrace.HRelationsOf
	StragglersOf   = itrace.StragglersOf
)
