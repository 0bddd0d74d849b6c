package trace

import (
	"bufio"
	"fmt"
	"io"
)

// This file holds the aggregated exports that stay readable when the full
// event stream does not: per-superstep and per-collective-stage rollups plus
// the top-k slack ranks, computed in one streaming pass over the lanes. A
// rollup of a P=65536 run is a few kilobytes regardless of event count.

// StepRollup aggregates one superstep bucket across all ranks.
type StepRollup struct {
	Step int
	// ByCategory sums event durations per category over every rank.
	ByCategory [numCategories]float64
	// Boundary is the latest superstep-boundary mark of the step and
	// Straggler the rank that set it (-1 without marks).
	Boundary  float64
	Straggler int
	// Messages and Bytes total the step's sent traffic.
	Messages int64
	Bytes    int64
}

// StageRollup aggregates one collective-schedule stage across all ranks.
type StageRollup struct {
	Stage int
	// Events counts the stage's non-mark events.
	Events int
	// ByCategory sums event durations per category.
	ByCategory [numCategories]float64
	// Messages and Bytes total the stage's sent traffic.
	Messages int64
	Bytes    int64
}

// Rollup is the aggregate view of a run: totals, per-step and per-stage
// attributions, and the worst stragglers.
type Rollup struct {
	Meta     Meta
	MakeSpan float64
	Events   int
	Messages int64
	Bytes    int64
	// ByCategory sums event durations per category over the whole run.
	ByCategory [numCategories]float64
	// Steps has one entry per superstep bucket, Stages one per schedule
	// stage observed (empty when the run executed no collective schedule).
	Steps  []StepRollup
	Stages []StageRollup
	// TopSlack lists the k worst stragglers, slack descending.
	TopSlack []Straggler
}

// TotalByCategory returns the run-wide total of one category.
func (r *Rollup) TotalByCategory(c Category) float64 { return r.ByCategory[c] }

// RollupOptions tune RollupOf.
type RollupOptions struct {
	// TopK bounds the straggler list; 0 means 8.
	TopK int
}

// colsRollup are the columns the rollup reads: everything but Tag and
// Arrival.
const colsRollup = colsAll &^ (colTag | colArrival)

// RollupOf computes the aggregate view of any source in a single streaming
// pass per lane (rank-major, so the float accumulation order — and thus the
// bytes of a rendered rollup — is deterministic).
func RollupOf(src Source, opts RollupOptions) (*Rollup, error) {
	if opts.TopK <= 0 {
		opts.TopK = 8
	}
	sum := src.RunSummary()
	r := &Rollup{
		Meta:     src.RunMeta(),
		MakeSpan: sum.MakeSpan,
		Messages: sum.Messages,
		Bytes:    sum.Bytes,
		Steps:    make([]StepRollup, sum.Steps),
	}
	for s := range r.Steps {
		r.Steps[s].Step = s
		r.Steps[s].Straggler = -1
	}
	stageAt := func(stage int32) *StageRollup {
		for int(stage) >= len(r.Stages) {
			r.Stages = append(r.Stages, StageRollup{Stage: len(r.Stages)})
		}
		return &r.Stages[stage]
	}
	err := src.eachLane(colsRollup, func(rank int, c *Cols) {
		for i, n := 0, c.Len(); i < n; i++ {
			if c.Kind[i] == KindSuperstep {
				sb := &r.Steps[c.Step[i]]
				if c.T1[i] > sb.Boundary || sb.Straggler < 0 {
					sb.Boundary = c.T1[i]
					sb.Straggler = rank
				}
				continue
			}
			var stage *StageRollup
			if c.Stage[i] >= 0 {
				stage = stageAt(c.Stage[i])
			}
			if c.Kind[i] == KindStage { // the mark only opens its stage's row
				continue
			}
			r.Events++
			step := &r.Steps[c.Step[i]]
			if stage != nil {
				stage.Events++
			}
			if c.Kind[i] == KindSend {
				step.Messages++
				step.Bytes += int64(c.Size[i])
				if stage != nil {
					stage.Messages++
					stage.Bytes += int64(c.Size[i])
				}
			}
			classifyCols(src, c, i, func(cat Category, d float64) {
				r.ByCategory[cat] += d
				step.ByCategory[cat] += d
				if stage != nil {
					stage.ByCategory[cat] += d
				}
			})
		}
	})
	if err != nil {
		return nil, err
	}
	r.TopSlack = TopSlack(src, opts.TopK)
	return r, nil
}

// WriteRollup renders a rollup as a compact deterministic text table;
// golden tests diff it directly.
func WriteRollup(w io.Writer, r *Rollup) error {
	bw := bufio.NewWriter(w)
	label := r.Meta.Label
	if label == "" {
		label = "(unlabeled run)"
	}
	fmt.Fprintf(bw, "trace rollup: %s\n", label)
	seed := "unknown"
	if r.Meta.SeedKnown {
		seed = fmt.Sprintf("%d", r.Meta.Seed)
	}
	fmt.Fprintf(bw, "procs: %d  seed: %s  events: %d  messages: %d  bytes: %d\n",
		r.Meta.Procs, seed, r.Events, r.Messages, r.Bytes)
	fmt.Fprintf(bw, "makespan: %s s\n", formatSeconds(r.MakeSpan))

	fmt.Fprintf(bw, "\ntotals by category:\n")
	for _, c := range Categories {
		fmt.Fprintf(bw, "  %-15s %12.6e s\n", c, r.ByCategory[c])
	}

	fmt.Fprintf(bw, "\nper-superstep rollup:\n")
	fmt.Fprintf(bw, "  %-5s %-13s %-13s %-13s %-13s %-8s %-10s %-9s\n",
		"step", "compute", "send", "straggler", "latency", "msgs", "bytes", "straggler@")
	for _, s := range r.Steps {
		who := "-"
		if s.Straggler >= 0 {
			who = fmt.Sprintf("rank %d", s.Straggler)
		}
		fmt.Fprintf(bw, "  %-5d %13.6e %13.6e %13.6e %13.6e %-8d %-10d %-9s\n",
			s.Step, s.ByCategory[CatCompute], s.ByCategory[CatSend],
			s.ByCategory[CatStraggler], s.ByCategory[CatLatency], s.Messages, s.Bytes, who)
	}

	if len(r.Stages) > 0 {
		fmt.Fprintf(bw, "\nper-stage rollup:\n")
		fmt.Fprintf(bw, "  %-6s %-8s %-13s %-13s %-13s %-8s %-10s\n",
			"stage", "events", "compute", "send", "wait", "msgs", "bytes")
		for _, s := range r.Stages {
			wait := s.ByCategory[CatStraggler] + s.ByCategory[CatLatency] +
				s.ByCategory[CatPort] + s.ByCategory[CatAck]
			fmt.Fprintf(bw, "  %-6d %-8d %13.6e %13.6e %13.6e %-8d %-10d\n",
				s.Stage, s.Events, s.ByCategory[CatCompute], s.ByCategory[CatSend],
				wait, s.Messages, s.Bytes)
		}
	}

	fmt.Fprintf(bw, "\ntop slack (worst stragglers first):\n")
	for _, s := range r.TopSlack {
		fmt.Fprintf(bw, "  rank %-6d slack %12.6e s\n", s.Rank, s.Slack)
	}
	return bw.Flush()
}
