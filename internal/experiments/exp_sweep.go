package experiments

import (
	"context"
	"fmt"

	"hbsp/internal/barrier"
	"hbsp/internal/platform"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
)

// SweepSeriesPoint is one point of a parameter sweep: the
// total-exchange evaluation at one payload size (bytes axis) or one LogGP
// scaling (scale axis), evaluated through a reused sched.SweepEvaluator.
type SweepSeriesPoint struct {
	Procs int
	// Payload is the per-block payload size of the point in bytes.
	Payload int
	// Scale is the LogGP scaling factor applied to the profile's latency,
	// gap, beta and overhead at this point (1 on the bytes axis).
	Scale    float64
	MakeSpan float64
	Messages int64
	Bytes    int64
}

// sweepSeriesOptions is the fixed per-sweep configuration of the sweep
// series: RunSchedule's conventions (acks on, empty stages pay a compute
// draw), so every point is bit-identical to an independent
// sched.RunSchedule call under simnet.DefaultOptions().
func sweepSeriesOptions() sched.SweepOptions {
	o := simnet.DefaultOptions()
	return sched.SweepOptions{
		AckSends:         o.AckSends,
		SymmetryCollapse: o.SymmetryCollapse,
		ComputeEmpty:     true,
		Deadline:         o.Deadline,
	}
}

// sweepSeries runs n sweep points on the parallel point engine, handing each
// worker its own SweepEvaluator over the machine mk returns: consecutive
// points claimed by the same worker share the evaluator's arena and
// memoized partitions, while results stay deterministic and sweep-ordered (the evaluator's bit-identity contract makes the
// point-to-worker assignment unobservable).
func sweepSeries(mk func() (*platform.Machine, error), n int,
	fn func(sw *sched.SweepEvaluator, i int) (SweepSeriesPoint, error)) ([]SweepSeriesPoint, error) {
	return RunPointsWith(n,
		func() (*sched.SweepEvaluator, error) {
			m, err := mk()
			if err != nil {
				return nil, err
			}
			return sched.NewSweepEvaluator(m, sweepSeriesOptions())
		},
		func(sw *sched.SweepEvaluator) { sw.Release() },
		fn)
}

// BytesSweepSeries sweeps the total-exchange block size at a fixed rank
// count — the bytes axis of an experiment figure. All points share the
// machine and the schedule's stage structure, so each worker's
// SweepEvaluator evaluates them on one arena and derives the collapse
// partition of the offset sequence once.
func BytesSweepSeries(prof *platform.Profile, procs int, payloads []int) ([]SweepSeriesPoint, error) {
	if procs < 2 {
		return nil, fmt.Errorf("experiments: bytes sweep needs procs >= 2, got %d", procs)
	}
	m, err := prof.Machine(procs)
	if err != nil {
		return nil, err
	}
	return sweepSeries(func() (*platform.Machine, error) { return m, nil }, len(payloads),
		func(sw *sched.SweepEvaluator, i int) (SweepSeriesPoint, error) {
			s, err := barrier.StreamTotalExchange(procs, payloads[i])
			if err != nil {
				return SweepSeriesPoint{}, err
			}
			res, err := sw.Run(context.Background(), m, s, 1)
			if err != nil {
				return SweepSeriesPoint{}, err
			}
			return SweepSeriesPoint{
				Procs:    procs,
				Payload:  payloads[i],
				Scale:    1,
				MakeSpan: res.MakeSpan,
				Messages: res.Messages,
				Bytes:    res.Bytes,
			}, nil
		})
}

// ScaleSweepSeries sweeps a uniform LogGP scaling of the profile — latency,
// gap, beta and overhead all multiplied by the factor — over the
// total-exchange at a fixed rank count and payload. Scaled profiles stay
// term-compatible with the base machine, so each worker's SweepEvaluator
// stays on its base — arena and partitions kept — and prices every point
// under that point's link columns.
func ScaleSweepSeries(prof *platform.Profile, procs, payload int, scales []float64) ([]SweepSeriesPoint, error) {
	if procs < 2 {
		return nil, fmt.Errorf("experiments: scale sweep needs procs >= 2, got %d", procs)
	}
	s, err := barrier.StreamTotalExchange(procs, payload)
	if err != nil {
		return nil, err
	}
	machines := make([]*platform.Machine, len(scales))
	for i, f := range scales {
		m, err := prof.Scaled(f, f, f, f).Machine(procs)
		if err != nil {
			return nil, err
		}
		machines[i] = m
	}
	base := func() (*platform.Machine, error) { return prof.Machine(procs) }
	return sweepSeries(base, len(scales),
		func(sw *sched.SweepEvaluator, i int) (SweepSeriesPoint, error) {
			res, err := sw.Run(context.Background(), machines[i], s, 1)
			if err != nil {
				return SweepSeriesPoint{}, err
			}
			return SweepSeriesPoint{
				Procs:    procs,
				Payload:  payload,
				Scale:    scales[i],
				MakeSpan: res.MakeSpan,
				Messages: res.Messages,
				Bytes:    res.Bytes,
			}, nil
		})
}

// SweepSeriesTable renders sweep points.
func SweepSeriesTable(title string, points []SweepSeriesPoint) *Table {
	t := &Table{Title: title, Columns: []string{"P", "payload [B]", "scale", "makespan [s]", "messages", "bytes"}}
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%d", p.Procs), fmt.Sprintf("%d", p.Payload), fmt.Sprintf("%g", p.Scale),
			fmtSeconds(p.MakeSpan), fmt.Sprintf("%d", p.Messages), fmt.Sprintf("%d", p.Bytes))
	}
	return t
}
