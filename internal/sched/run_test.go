package sched_test

import (
	"context"
	"errors"
	"testing"

	"hbsp/internal/barrier"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

// noRanks is a machine that reports no ranks.
type noRanks struct{ simnet.Machine }

func (noRanks) Procs() int { return 0 }

// TestRunFrameRejects drives the four whole-run entries through the run
// frame's refusals: a machine without ranks and an input sized for another
// rank count are refused, and a context cancelled before the run returns
// ErrAborted wrapping its cause before the body walks anything, with a traced
// run's recorder sealed with that error.
func TestRunFrameRejects(t *testing.T) {
	const p = 8
	m := machines(t, p, 1, false)
	schedule := func(t *testing.T, ranks int) sched.Schedule {
		s, err := barrier.StreamDissemination(ranks)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Each entry runs an input sized for ranks on machine on.
	entries := []struct {
		name string
		run  func(t *testing.T, ctx context.Context, on simnet.Machine, ranks int, o simnet.Options) error
	}{
		{"RunSchedule", func(t *testing.T, ctx context.Context, on simnet.Machine, ranks int, o simnet.Options) error {
			_, err := sched.RunSchedule(ctx, on, schedule(t, ranks), 1, o)
			return err
		}},
		{"SweepEvaluator.Run", func(t *testing.T, ctx context.Context, on simnet.Machine, ranks int, o simnet.Options) error {
			sw, err := sched.NewSweepEvaluator(m, sched.SweepOptions{AckSends: o.AckSends, Recorder: o.Recorder})
			if err != nil {
				t.Fatal(err)
			}
			defer sw.Release()
			_, err = sw.Run(ctx, on, schedule(t, ranks), 1)
			return err
		}},
		{"RunSupersteps", func(t *testing.T, ctx context.Context, on simnet.Machine, ranks int, o simnet.Options) error {
			_, err := sched.RunSupersteps(ctx, on, ringSupersteps(t, ranks, 2, nil), o)
			return err
		}},
		{"Code.Run", func(t *testing.T, ctx context.Context, on simnet.Machine, ranks int, o simnet.Options) error {
			code, err := sched.Compile(ringProgram(ranks))
			if err != nil {
				t.Fatal(err)
			}
			_, err = code.Run(ctx, on, o)
			return err
		}},
	}
	ctx, o := context.Background(), simnet.DefaultOptions()
	for _, en := range entries {
		t.Run(en.name, func(t *testing.T) {
			t.Run("zero-rank machine", func(t *testing.T) {
				if err := en.run(t, ctx, noRanks{m}, p, o); err == nil {
					t.Error("machine without ranks accepted")
				}
			})
			t.Run("input for another P", func(t *testing.T) {
				if err := en.run(t, ctx, m, p+1, o); err == nil {
					t.Errorf("input for %d ranks accepted on a %d-rank machine", p+1, p)
				}
			})
			t.Run("pre-cancelled context", func(t *testing.T) {
				cause := errors.New("client hung up")
				cancelled, cancel := context.WithCancelCause(ctx)
				cancel(cause)
				traced := o
				traced.Recorder = trace.NewRecorder()
				err := en.run(t, cancelled, m, p, traced)
				if !errors.Is(err, simnet.ErrAborted) || !errors.Is(err, cause) {
					t.Fatalf("want ErrAborted wrapping %q, got %v", cause, err)
				}
				tr, err := traced.Recorder.Trace()
				if err != nil {
					t.Fatalf("recorder not sealed: %v", err)
				}
				if !errors.Is(tr.Err, simnet.ErrAborted) || !errors.Is(tr.Err, cause) {
					t.Fatalf("recording sealed with %v, want the run's error", tr.Err)
				}
				if n := tr.NumEvents(); n != 0 {
					t.Errorf("%d events recorded: the body ran under a cancelled context", n)
				}
			})
		})
	}
}
