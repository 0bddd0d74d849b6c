package experiments

import (
	"context"
	"fmt"

	"hbsp/internal/barrier"
	"hbsp/internal/platform"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

// TraceBreakdownPoint explains one process count of the dissemination
// barrier sweep through trace analysis: where the makespan goes (critical
// path composition) and how placement shapes it. The CrossNodeHops column is
// the explanation of the Fig. 5.6-style odd/even oscillation — adding one
// rank changes how many of the gating messages must cross node boundaries
// (round-robin placement alternates the NIC neighbourhood of the last rank),
// so the critical path picks up or sheds full network latencies while the
// algorithm is unchanged.
type TraceBreakdownPoint struct {
	Procs    int
	MakeSpan float64
	// PathHops is the number of rank residencies on the critical path;
	// CrossNodeHops counts the gating messages that crossed node (NIC)
	// boundaries.
	PathHops      int
	CrossNodeHops int
	// PathCompute, PathSend and PathInFlight decompose the critical path's
	// end time by origin (local work, injection overhead, message flight).
	PathCompute  float64
	PathSend     float64
	PathInFlight float64
	// StragglerWait and LatencyWait sum the corresponding breakdown
	// categories over all ranks (rank-seconds).
	StragglerWait float64
	LatencyWait   float64
	// CriticalRank set the makespan.
	CriticalRank int
}

// TraceBreakdownSeries traces one execution of the dissemination barrier at
// every supplied process count (with the same per-point run seeds
// Fig5_6Series measures under) and extracts the critical-path and wait-time
// explanation of each point.
func TraceBreakdownSeries(prof *platform.Profile, procsList []int, opts Options) ([]TraceBreakdownPoint, error) {
	opts = opts.normalize()
	return ParallelSeries(procsList, func(p int) ([]TraceBreakdownPoint, error) {
		m, err := prof.Machine(p)
		if err != nil {
			return nil, err
		}
		seeded := m.WithRunSeed(int64(100 + p))
		pat, err := barrier.Dissemination(p)
		if err != nil {
			return nil, err
		}
		rec := trace.NewRecorder()
		rec.SetLabel(fmt.Sprintf("dissemination barrier, P=%d", p))
		o := simnet.DefaultOptions()
		o.Recorder = rec
		res, err := sched.RunSchedule(context.Background(), seeded, pat, 1, o)
		if err != nil {
			return nil, err
		}
		tr, err := rec.Trace()
		if err != nil {
			return nil, err
		}
		cp := tr.CriticalPath()
		bd := tr.Breakdown()
		pt := TraceBreakdownPoint{
			Procs:         p,
			MakeSpan:      res.MakeSpan,
			PathHops:      len(cp.Hops),
			PathCompute:   cp.Compute,
			PathSend:      cp.Send,
			PathInFlight:  cp.InFlight,
			StragglerWait: bd.TotalByCategory(trace.CatStraggler),
			LatencyWait:   bd.TotalByCategory(trace.CatLatency),
			CriticalRank:  cp.Rank,
		}
		for _, hop := range cp.Hops {
			if hop.ViaPeer >= 0 && seeded.NIC(hop.ViaPeer) != seeded.NIC(hop.Rank) {
				pt.CrossNodeHops++
			}
		}
		return []TraceBreakdownPoint{pt}, nil
	})
}

// ConsecutiveProcs returns the inclusive range lo..hi, the consecutive sweep
// that makes odd/even placement effects visible (the coarse procSweep strides
// hide them).
func ConsecutiveProcs(lo, hi int) []int {
	if lo < 2 {
		lo = 2
	}
	if hi < lo {
		hi = lo
	}
	out := make([]int, 0, hi-lo+1)
	for p := lo; p <= hi; p++ {
		out = append(out, p)
	}
	return out
}

// TraceBreakdownTable renders trace breakdown points.
func TraceBreakdownTable(title string, points []TraceBreakdownPoint) *Table {
	t := &Table{Title: title, Columns: []string{
		"P", "makespan [s]", "hops", "x-node", "path compute [s]", "path in-flight [s]", "straggler [rank-s]", "latency [rank-s]", "crit rank"}}
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%d", p.Procs), fmtSeconds(p.MakeSpan),
			fmt.Sprintf("%d", p.PathHops), fmt.Sprintf("%d", p.CrossNodeHops),
			fmtSeconds(p.PathCompute), fmtSeconds(p.PathInFlight),
			fmtSeconds(p.StragglerWait), fmtSeconds(p.LatencyWait),
			fmt.Sprintf("%d", p.CriticalRank))
	}
	return t
}
