package sched_test

import (
	"context"
	"errors"
	"testing"

	"hbsp/internal/bsp"
	"hbsp/internal/kernels"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

// ringSupersteps is steps supersteps of skewed compute and one post around a
// ring over the default count exchange; onStep, when set, observes every Step
// call.
func ringSupersteps(t *testing.T, p, steps int, onStep func(step int)) *sched.Supersteps {
	t.Helper()
	exchange, err := bsp.ExchangeSchedule(p)
	if err != nil {
		t.Fatal(err)
	}
	return &sched.Supersteps{
		Steps: steps,
		Step: func(step, rank int, ops sched.Ops) {
			if onStep != nil {
				onStep(step)
			}
			if step < steps {
				ops.Compute(sched.Work{Seconds: 1e-6 * float64(1+rank%4)})
				ops.Put((rank+1)%p, 1)
			}
		},
		KernelTime: func(int, kernels.Kernel, int) float64 { return 1e-6 },
		PutBytes:   func(int) int { return 32 }, PutTag: 7, Exchange: exchange, ExchangeTag: 1 << 24,
	}
}

// TestRunSuperstepsBudgetAndCancellation pins that the superstep walk polls —
// a request's budget and a client's hang-up reach it between supersteps, not
// only before the first — and that a traced run cut short by its budget seals
// its recorder with the outcome: Trace() answers, and carries the error. The
// run frame's refusals, a pre-cancelled context among them, are
// TestRunFrameRejects'.
func TestRunSuperstepsBudgetAndCancellation(t *testing.T) {
	const p, steps = 64, 200
	m := machines(t, p, 3, true)
	sealedWith := func(rec *trace.Recorder, want error) {
		t.Helper()
		tr, err := rec.Trace()
		if err != nil {
			t.Fatalf("recorder not sealed: %v", err)
		}
		if !errors.Is(tr.Err, want) {
			t.Fatalf("recording sealed with %v, want %v", tr.Err, want)
		}
	}

	t.Run("cancelled mid-run", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		last := 0
		sp := ringSupersteps(t, p, steps, func(step int) {
			if last = step; step == 3 {
				cancel()
			}
		})
		_, err := sched.RunSupersteps(ctx, m, sp, simnet.DefaultOptions())
		if !errors.Is(err, simnet.ErrAborted) {
			t.Fatalf("want ErrAborted, got %v", err)
		}
		if last != 3 {
			t.Errorf("walked on to superstep %d after the cancellation in superstep 3", last)
		}
	})

	t.Run("exhausted deadline", func(t *testing.T) {
		o := simnet.DefaultOptions()
		o.Deadline = 1 // nanosecond
		o.Recorder = trace.NewRecorder()
		last := 0
		_, err := sched.RunSupersteps(context.Background(), m, ringSupersteps(t, p, steps, func(step int) { last = step }), o)
		if !errors.Is(err, simnet.ErrDeadline) {
			t.Fatalf("want ErrDeadline, got %v", err)
		}
		if last > 1 {
			t.Errorf("walked %d supersteps on a one-nanosecond budget", last+1)
		}
		sealedWith(o.Recorder, simnet.ErrDeadline)
	})
}

// TestRunSuperstepsRejectsBadPrograms covers the entry's own argument checks
// (the run frame's are TestRunFrameRejects'): a caller's mistake is an
// error, never an index out of range.
func TestRunSuperstepsRejectsBadPrograms(t *testing.T) {
	const p = 8
	m := machines(t, p, 1, false)
	ctx, o := context.Background(), simnet.DefaultOptions()
	if _, err := sched.RunSupersteps(ctx, m, &sched.Supersteps{Steps: 1}, o); err == nil {
		t.Error("program without step, kernel-time and put-size functions or exchange accepted")
	}
	sp := ringSupersteps(t, p, 1, nil)
	for name, step := range map[string]func(step, rank int, ops sched.Ops){
		"post to a rank outside the machine": func(_, _ int, ops sched.Ops) { ops.Put(p, 1) },
		"post of a negative size":            func(_, _ int, ops sched.Ops) { ops.Put(0, -1) },
		"post after the last superstep": func(step, _ int, ops sched.Ops) {
			if step == sp.Steps {
				ops.Put(0, 1)
			}
		},
	} {
		sp.Step = step
		if _, err := sched.RunSupersteps(ctx, m, sp, o); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
