package experiments

import (
	"context"
	"fmt"

	"hbsp/internal/bsp"
	"hbsp/internal/platform"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
)

// CollapsePoint is one point of the symmetry-collapse scaling study: the
// direct evaluation of the superstep count exchange on a flat homogeneous
// cluster at one rank count, with the number of rank-equivalence classes the
// collapse reduced the evaluation to.
type CollapsePoint struct {
	Procs int
	// Classes is the number of equivalence classes evaluated (1 on a flat
	// cluster — the whole machine advances as a single representative rank);
	// 0 means the collapse did not apply and all ranks were evaluated.
	Classes  int
	Stages   int
	MakeSpan float64
	Messages int64
	Bytes    int64
}

// CollapseScalingSeries evaluates the dissemination count exchange on flat
// homogeneous clusters over the given rank counts — the scaling study behind
// the README's P=4096 → P=1M table. Every point runs through
// sched.RunSchedule under the default CollapseAuto mode: the machine is
// pairwise uniform and the exchange schedule is circulant, so the evaluator
// collapses all ranks into one equivalence class: each point walks one class
// state over O(stages) work, and its O(P) memory is the machine, the
// partition RunSchedule derives (the class count is read off its diagnostic)
// and the result times — which is what makes the P=1,048,576 point cheap.
func CollapseScalingSeries(procsList []int) ([]CollapsePoint, error) {
	return ParallelSeries(procsList, func(p int) ([]CollapsePoint, error) {
		if p < 2 {
			return nil, nil
		}
		m, err := platform.FlatClusterMachine(p)
		if err != nil {
			return nil, err
		}
		s, err := bsp.ExchangeSchedule(p)
		if err != nil {
			return nil, err
		}
		res, err := sched.RunSchedule(context.Background(), m, s, 1, simnet.DefaultOptions())
		if err != nil {
			return nil, err
		}
		return []CollapsePoint{{
			Procs:    p,
			Classes:  res.Collapse.Classes,
			Stages:   s.NumStages(),
			MakeSpan: res.MakeSpan,
			Messages: res.Messages,
			Bytes:    res.Bytes,
		}}, nil
	})
}

// CollapseScalingTable renders collapse scaling points.
func CollapseScalingTable(title string, points []CollapsePoint) *Table {
	t := &Table{Title: title, Columns: []string{"P", "classes", "stages", "sync makespan [s]", "messages", "bytes"}}
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%d", p.Procs), fmt.Sprintf("%d", p.Classes), fmt.Sprintf("%d", p.Stages),
			fmtSeconds(p.MakeSpan), fmt.Sprintf("%d", p.Messages), fmt.Sprintf("%d", p.Bytes))
	}
	return t
}
