package mpi_test

// External test package: the schedule-executing collectives are exercised
// with real verified patterns from internal/barrier, which imports
// internal/mpi — an in-package test would be an import cycle.

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"hbsp/internal/barrier"
	"hbsp/internal/mpi"
	"hbsp/internal/platform"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

func scheduleMachine(t *testing.T, procs int) simnet.Machine {
	t.Helper()
	m, err := platform.Xeon8x2x4().Machine(procs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestScheduleCollectivesComputeCorrectValues runs every schedule-driven
// collective on verified generator patterns, for a power of two and a
// non-power-of-two process count.
func TestScheduleCollectivesComputeCorrectValues(t *testing.T) {
	for _, procs := range []int{5, 8} {
		bc, err := barrier.Broadcast(procs, 2, 64)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := barrier.Reduce(procs, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		ar, err := barrier.AllReduce(procs, 8)
		if err != nil {
			t.Fatal(err)
		}
		ag, err := barrier.AllGather(procs, 8)
		if err != nil {
			t.Fatal(err)
		}
		te, err := barrier.TotalExchange(procs, 8)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := barrier.Dissemination(procs)
		if err != nil {
			t.Fatal(err)
		}
		m := scheduleMachine(t, procs)
		_, err = mpi.Run(m, func(c *mpi.Comm) error {
			p := c.Size()
			me := float64(c.Rank())

			got, err := c.BcastSchedule(bc, 2%p, "payload")
			if err != nil {
				return err
			}
			if got != "payload" {
				t.Errorf("p=%d rank=%d: BcastSchedule = %v", p, c.Rank(), got)
			}

			sum, err := c.ReduceSchedule(rd, 0, me, mpi.OpSum)
			if err != nil {
				return err
			}
			wantSum := float64(p*(p-1)) / 2
			if c.Rank() == 0 && sum != wantSum {
				t.Errorf("p=%d: ReduceSchedule = %g, want %g", p, sum, wantSum)
			}

			all, err := c.AllreduceSchedule(ar, me, mpi.OpMax)
			if err != nil {
				return err
			}
			if all != float64(p-1) {
				t.Errorf("p=%d rank=%d: AllreduceSchedule = %g, want %d", p, c.Rank(), all, p-1)
			}

			gathered, err := c.AllgatherSchedule(ag, c.Rank()*11)
			if err != nil {
				return err
			}
			for r, v := range gathered {
				if v != r*11 {
					t.Errorf("p=%d rank=%d: AllgatherSchedule[%d] = %v", p, c.Rank(), r, v)
				}
			}

			blocks := make([]any, p)
			for j := range blocks {
				blocks[j] = 100*c.Rank() + j
			}
			exch, err := c.TotalExchangeSchedule(te, blocks)
			if err != nil {
				return err
			}
			for src, v := range exch {
				if v != 100*src+c.Rank() {
					t.Errorf("p=%d rank=%d: TotalExchangeSchedule[%d] = %v", p, c.Rank(), src, v)
				}
			}

			return c.BarrierSchedule(ba)
		})
		if err != nil {
			t.Fatalf("p=%d: %v", procs, err)
		}
	}
}

// TestScheduleCollectiveValidation exercises the error paths that do not
// require a mismatched collective call pattern.
func TestScheduleCollectiveValidation(t *testing.T) {
	pat, err := barrier.AllReduce(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := barrier.AllReduce(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := scheduleMachine(t, 4)
	_, err = mpi.Run(m, func(c *mpi.Comm) error {
		if _, err := c.BcastSchedule(pat, -1, 0); err == nil {
			t.Error("BcastSchedule with invalid root should fail")
		}
		if _, err := c.ReduceSchedule(pat, 9, 0, mpi.OpSum); err == nil {
			t.Error("ReduceSchedule with invalid root should fail")
		}
		if _, err := c.AllreduceSchedule(wrong, 0, mpi.OpSum); err == nil {
			t.Error("AllreduceSchedule with mismatched process count should fail")
		}
		if _, err := c.TotalExchangeSchedule(pat, make([]any, 2)); err == nil {
			t.Error("TotalExchangeSchedule with wrong block count should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// collectiveSchedules is one schedule per typed collective, in one form.
type collectiveSchedules struct{ bc, rd, ar, ag, te, ba, tr mpi.Schedule }

func must[S mpi.Schedule](t *testing.T) func(S, error) mpi.Schedule {
	return func(s S, err error) mpi.Schedule {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

// TestStreamedAndDenseSchedulesAgreeOnBothEngines runs every typed schedule
// collective four ways — on the materialized *Pattern and on the streamed
// schedule of the same name, each evaluated at the gate (EngineAuto) and
// walked rank by rank through the stage view (EngineConcurrent) — on a noisy
// heterogeneous machine, with and without acknowledged sends: per-rank times,
// traffic, every returned value and, traced, the recording byte for byte must
// be the same on all four. The run ends with a barrier flooded over the
// binomial tree (edge lists in both forms; it has no streamed generator),
// whose ranks sit idle in some stages at every P here but the powers of two —
// P = 6 is in the list for it.
func TestStreamedAndDenseSchedulesAgreeOnBothEngines(t *testing.T) {
	for _, p := range []int{1, 2, 5, 6, 8, 13, 16} {
		root := 2 % p
		dense, stream := must[*barrier.Pattern](t), must[mpi.Schedule](t)
		forms := map[string]collectiveSchedules{
			"dense": {
				bc: dense(barrier.Broadcast(p, root, 96)), rd: dense(barrier.Reduce(p, root, 8)),
				ar: dense(barrier.AllReduce(p, 8)), ag: dense(barrier.AllGather(p, 24)),
				te: dense(barrier.TotalExchange(p, 40)), ba: dense(barrier.Dissemination(p)),
				tr: dense(barrier.Tree(p)),
			},
			"streamed": {
				bc: stream(barrier.StreamBroadcast(p, root, 96)), rd: stream(barrier.StreamReduce(p, root, 8)),
				ar: stream(barrier.StreamAllReduce(p, 8)), ag: stream(barrier.StreamAllGather(p, 24)),
				te: stream(barrier.StreamTotalExchange(p, 40)), ba: stream(barrier.StreamDissemination(p)),
				tr: dense(barrier.Tree(p)),
			},
		}
		m, err := platform.Xeon8x2x4().Machine(p) // heterogeneity spread and run-to-run noise
		if err != nil {
			t.Fatal(err)
		}
		for _, ack := range []bool{true, false} {
			for _, traced := range []bool{false, true} {
				type outcome struct {
					leg    string
					res    *simnet.Result
					values []string
					spill  []byte
				}
				var first *outcome
				for _, form := range []string{"dense", "streamed"} {
					for _, engine := range []simnet.Engine{simnet.EngineAuto, simnet.EngineConcurrent} {
						cs := forms[form]
						got := &outcome{leg: fmt.Sprintf("p=%d ack=%t traced=%t %s/engine%d", p, ack, traced, form, engine), values: make([]string, p)}
						o := simnet.DefaultOptions()
						o.AckSends, o.Engine = ack, engine
						if traced {
							o.Recorder = trace.NewRecorder()
						}
						got.res, err = mpi.RunContext(context.Background(), m.WithRunSeed(41), func(c *mpi.Comm) error {
							me := float64(c.Rank())
							b, err := c.BcastSchedule(cs.bc, root, "payload")
							if err != nil {
								return err
							}
							r, err := c.ReduceSchedule(cs.rd, root, me+0.5, mpi.OpSum)
							if err != nil {
								return err
							}
							a, err := c.AllreduceSchedule(cs.ar, me*1.25, mpi.OpSum)
							if err != nil {
								return err
							}
							g, err := c.AllgatherSchedule(cs.ag, c.Rank()*11)
							if err != nil {
								return err
							}
							blocks := make([]any, p)
							for j := range blocks {
								blocks[j] = 100*c.Rank() + j
							}
							x, err := c.TotalExchangeSchedule(cs.te, blocks)
							if err != nil {
								return err
							}
							got.values[c.Rank()] = fmt.Sprint(b, r, a, g, x)
							if err := c.BarrierSchedule(cs.ba); err != nil {
								return err
							}
							return c.BarrierSchedule(cs.tr)
						}, o)
						if err != nil {
							t.Fatalf("%s: %v", got.leg, err)
						}
						if traced {
							tr, err := o.Recorder.Trace()
							if err != nil {
								t.Fatalf("%s: %v", got.leg, err)
							}
							var buf bytes.Buffer
							if err := trace.WriteSpill(&buf, tr); err != nil {
								t.Fatalf("%s: %v", got.leg, err)
							}
							got.spill = buf.Bytes()
						}
						if first == nil {
							first = got
							continue
						}
						if !slices.Equal(got.res.Times, first.res.Times) {
							t.Errorf("%s: times %v, %s has %v", got.leg, got.res.Times, first.leg, first.res.Times)
						}
						if got.res.Messages != first.res.Messages || got.res.Bytes != first.res.Bytes {
							t.Errorf("%s: %d messages / %d bytes, %s has %d / %d", got.leg,
								got.res.Messages, got.res.Bytes, first.leg, first.res.Messages, first.res.Bytes)
						}
						if !slices.Equal(got.values, first.values) {
							t.Errorf("%s: returned values %v, %s has %v", got.leg, got.values, first.leg, first.values)
						}
						if !bytes.Equal(got.spill, first.spill) {
							t.Errorf("%s: recorded a different trace than %s (%d and %d spill bytes)", got.leg, first.leg, len(got.spill), len(first.spill))
						}
					}
				}
			}
		}
	}
}
