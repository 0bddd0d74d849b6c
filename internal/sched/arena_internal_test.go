package sched

import (
	"context"
	"testing"

	"hbsp/internal/platform"
	"hbsp/internal/trace"
)

// TestKeptArenaLetsGoOfARecorder pins what a traced point owes the arena it
// ran on, which outlives it — kept by its SweepEvaluator for the next point,
// then handed back to the evaluator pool for the next run: once the point
// ends no rank state still points into the recorder, so an arena never keeps
// a finished request's trace alive, and an untraced point on the evaluator
// built after it collapses as if the traced one had never run.
func TestKeptArenaLetsGoOfARecorder(t *testing.T) {
	const p = 32
	m, err := platform.FlatClusterMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewCirculant(p, []int{1, 2, 4, 8, 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	rec := trace.NewRecorder()
	sw, err := NewSweepEvaluator(m, SweepOptions{AckSends: true, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := sw.Run(ctx, nil, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Collapse.Applied || traced.Collapse.Reason != "trace" {
		t.Errorf("traced point: collapse %+v, want the trace fallback", traced.Collapse)
	}
	if tr, err := rec.Trace(); err != nil || tr.NumEvents() == 0 {
		t.Errorf("traced point recorded nothing (%v)", err)
	}
	for r := range sw.e.states {
		if sw.e.states[r].Lane != nil {
			t.Fatalf("rank %d still holds a lane of the finished run", r)
		}
	}
	sw.Release()

	sw, err = NewSweepEvaluator(m, SweepOptions{AckSends: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Release()
	plain, err := sw.Run(ctx, nil, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Collapse.Applied {
		t.Errorf("untraced point after a traced one: collapse %+v, want applied", plain.Collapse)
	}
	if plain.MakeSpan != traced.MakeSpan {
		t.Errorf("makespan %v untraced, %v traced", plain.MakeSpan, traced.MakeSpan)
	}
}
