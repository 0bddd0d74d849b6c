// Package experiments is the public surface of the evaluation driver: one
// function per table and figure of the thesis' evaluation, each running its
// simulation points on the parallel sweep engine, plus the report that
// cmd/experiments prints (RunAll, or RunSections chapter by chapter). Sweep
// sizes are configured with Quick (CI, seconds) or Full (complete sweeps,
// minutes).
package experiments

import (
	"io"

	iexp "hbsp/internal/experiments"

	"hbsp/bsp"
	"hbsp/cluster"
	"hbsp/sim"
)

// Options select the sweep sizes of every experiment.
type Options = iexp.Options

// Table is a formatted result table.
type Table = iexp.Table

// Result row/point types of the individual experiments.
type (
	BSPBenchRow           = iexp.BSPBenchRow
	InnerProductPoint     = iexp.InnerProductPoint
	RatePoint             = iexp.RatePoint
	KernelPredictionPoint = iexp.KernelPredictionPoint
	BLASPoint             = iexp.BLASPoint
	BarrierPoint          = iexp.BarrierPoint
	SyncPoint             = iexp.SyncPoint
	ClusteringResult      = iexp.ClusteringResult
	HybridPoint           = iexp.HybridPoint
	CollectivePoint       = iexp.CollectivePoint
	CollapsePoint         = iexp.CollapsePoint
	StragglerPoint        = iexp.StragglerPoint
	RecoveryPoint         = iexp.RecoveryPoint
	AdaptedSyncPoint      = iexp.AdaptedSyncPoint
	StencilConfigRow      = iexp.StencilConfigRow
	WallTimeRow           = iexp.WallTimeRow
	ScalingPoint          = iexp.ScalingPoint
	PredictionPoint       = iexp.PredictionPoint
	OverlapSweepPoint     = iexp.OverlapSweepPoint
)

// Quick returns the reduced sweep sizes of the fast sanity pass.
func Quick() Options { return iexp.Quick() }

// Full returns the complete sweep sizes of the evaluation.
func Full() Options { return iexp.Full() }

// RunAll regenerates every table and figure and writes the report to w.
func RunAll(w io.Writer, opts Options) error { return iexp.RunAll(w, opts) }

// RunSections writes the named sections of the report — its chapters, such
// as "barriers" or "stencil" — in thesis order, whatever the order of names;
// no name selects all of them, and a name that is not a section is an error
// that lists the ones there are.
func RunSections(w io.Writer, opts Options, names ...string) error {
	return iexp.RunSections(w, opts, names...)
}

// Chapter 3: classic scalar BSP parameters and the inner-product comparison.
func Table3_1(prof *cluster.Profile, opts Options) ([]BSPBenchRow, error) {
	return iexp.Table3_1(prof, opts)
}
func Table3_1Table(rows []BSPBenchRow) *Table { return iexp.Table3_1Table(rows) }
func Fig3_2(prof *cluster.Profile, paramRows []BSPBenchRow, n int, opts Options) ([]InnerProductPoint, error) {
	return iexp.Fig3_2(prof, paramRows, n, opts)
}

// Chapter 4: computational rates.
func Fig4_2(prof *cluster.Profile) ([]RatePoint, error) { return iexp.Fig4_2(prof) }
func Fig4_3(prof *cluster.Profile, opts Options) ([]KernelPredictionPoint, error) {
	return iexp.Fig4_3(prof, opts)
}
func Fig4_5(prof *cluster.Profile, maxBytes float64) ([]BLASPoint, error) {
	return iexp.Fig4_5(prof, maxBytes)
}

// Chapter 5/6: barrier cost model and the payload-extended synchronization.
func Fig5_6Series(prof *cluster.Profile, maxProcs int, opts Options) ([]BarrierPoint, error) {
	return iexp.Fig5_6Series(prof, maxProcs, opts)
}
func BarrierTable(title string, points []BarrierPoint) *Table {
	return iexp.BarrierTable(title, points)
}
func Fig6_3Series(prof *cluster.Profile, maxProcs int, opts Options) ([]SyncPoint, error) {
	return iexp.Fig6_3Series(prof, maxProcs, opts)
}

// Chapter 7 (Case Study I): clustering and the adapted barrier.
func Table7_1(prof *cluster.Profile, procs int) (*ClusteringResult, error) {
	return iexp.Table7_1(prof, procs)
}
func Fig7_4Series(prof *cluster.Profile, maxProcs int, opts Options) ([]HybridPoint, error) {
	return iexp.Fig7_4Series(prof, maxProcs, opts)
}

// Collectives: measured vs predicted, and the adapted synchronizer end to
// end.
func CollectiveSeries(prof *cluster.Profile, maxProcs int, opts Options) ([]CollectivePoint, error) {
	return iexp.CollectiveSeries(prof, maxProcs, opts)
}
func CollectiveTable(title string, points []CollectivePoint) *Table {
	return iexp.CollectiveTable(title, points)
}
func AdaptedSyncSeries(prof *cluster.Profile, maxProcs int, opts Options) ([]AdaptedSyncPoint, error) {
	return iexp.AdaptedSyncSeries(prof, maxProcs, opts)
}

// CollapseScalingSeries evaluates the superstep count exchange on flat
// homogeneous clusters at the given rank counts through the
// symmetry-collapsed direct evaluator — the P=4096 → P=1M scaling study.
func CollapseScalingSeries(procsList []int) ([]CollapsePoint, error) {
	return iexp.CollapseScalingSeries(procsList)
}
func CollapseScalingTable(title string, points []CollapsePoint) *Table {
	return iexp.CollapseScalingTable(title, points)
}

// SweepSeriesPoint is one point of a parameter sweep.
type SweepSeriesPoint = iexp.SweepSeriesPoint

// BytesSweepSeries sweeps the total-exchange block size at a fixed rank
// count through per-worker sched.SweepEvaluators: each worker keeps one
// evaluator arena and its memoized collapse partitions across the points it
// claims. Results are bit-identical to (and ordered like) the sequential loop
// of independent runs it replaces.
func BytesSweepSeries(prof *cluster.Profile, procs int, payloads []int) ([]SweepSeriesPoint, error) {
	return iexp.BytesSweepSeries(prof, procs, payloads)
}

// ScaleSweepSeries sweeps a uniform LogGP scaling of the profile over the
// total-exchange at a fixed rank count and payload, with the same reuse as
// BytesSweepSeries (scaled profiles stay term-compatible, so a worker's
// evaluator is never rebased between points).
func ScaleSweepSeries(prof *cluster.Profile, procs, payload int, scales []float64) ([]SweepSeriesPoint, error) {
	return iexp.ScaleSweepSeries(prof, procs, payload, scales)
}

// SweepSeriesTable renders sweep points.
func SweepSeriesTable(title string, points []SweepSeriesPoint) *Table {
	return iexp.SweepSeriesTable(title, points)
}
func AdaptedSyncTable(title string, points []AdaptedSyncPoint) *Table {
	return iexp.AdaptedSyncTable(title, points)
}

// StragglerSeries sweeps the slowdown factor of a single straggling rank
// across repeated count exchanges on the flat homogeneous cluster, comparing
// the simulated makespan inflation against the first-order LogGP prediction.
func StragglerSeries(procs, execs int, factors []float64) ([]StragglerPoint, error) {
	return iexp.StragglerSeries(procs, execs, factors)
}
func StragglerTable(title string, points []StragglerPoint) *Table {
	return iexp.StragglerTable(title, points)
}

// RecoverySeries crashes one rank halfway through the run and sweeps the
// checkpoint interval, comparing the simulated makespan inflation against
// the checkpoint/restart accounting model.
func RecoverySeries(procs, execs int, fractions []float64) ([]RecoveryPoint, error) {
	return iexp.RecoverySeries(procs, execs, fractions)
}
func RecoveryTable(title string, points []RecoveryPoint) *Table {
	return iexp.RecoveryTable(title, points)
}

// SyncExchangeProgram is the shared BSP workload of the synchronizer
// benchmarks.
func SyncExchangeProgram(ctx *bsp.Ctx) error { return iexp.SyncExchangeProgram(ctx) }

// SendRecvRingProgram is the shared point-to-point workload of the
// send_recv benchmarks (untraced and recorder-attached).
func SendRecvRingProgram(p *sim.Proc) error { return iexp.SendRecvRingProgram(p) }

// Chapter 8 (Case Study II): the stencil evaluation.
func Table8_1(opts Options) []StencilConfigRow     { return iexp.Table8_1(opts) }
func Table8_1Table(rows []StencilConfigRow) *Table { return iexp.Table8_1Table(rows) }
func Table8_2(prof *cluster.Profile, opts Options) ([]WallTimeRow, error) {
	return iexp.Table8_2(prof, opts)
}
func Fig8_4Series(prof *cluster.Profile, gridN int, implementations []string, opts Options) ([]ScalingPoint, error) {
	return iexp.Fig8_4Series(prof, gridN, implementations, opts)
}
func Fig8_10Series(prof *cluster.Profile, opts Options) ([]PredictionPoint, error) {
	return iexp.Fig8_10Series(prof, opts)
}
func Fig8_18Series(prof *cluster.Profile, procs int, opts Options) ([]OverlapSweepPoint, error) {
	return iexp.Fig8_18Series(prof, procs, opts)
}

// Trace analysis: critical-path and wait-time explanations of the barrier
// sweeps (see the trace package for the underlying analysis passes).
type TraceBreakdownPoint = iexp.TraceBreakdownPoint

// TraceBreakdownSeries traces one dissemination barrier execution per
// process count and extracts the critical-path explanation of each point.
func TraceBreakdownSeries(prof *cluster.Profile, procsList []int, opts Options) ([]TraceBreakdownPoint, error) {
	return iexp.TraceBreakdownSeries(prof, procsList, opts)
}

// ConsecutiveProcs returns the inclusive range lo..hi, the sweep that makes
// odd/even placement effects visible.
func ConsecutiveProcs(lo, hi int) []int { return iexp.ConsecutiveProcs(lo, hi) }

// TraceBreakdownTable renders trace breakdown points.
func TraceBreakdownTable(title string, points []TraceBreakdownPoint) *Table {
	return iexp.TraceBreakdownTable(title, points)
}
