package mpi_test

// External test package: the schedule-executing collectives are exercised
// with real verified patterns from internal/barrier, which imports
// internal/mpi — an in-package test would be an import cycle.

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"hbsp/internal/barrier"
	"hbsp/internal/mpi"
	"hbsp/internal/platform"
	"hbsp/internal/sched"
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
// require a mismatched collective call pattern, on both engines.
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
	for _, tc := range []struct {
		name   string
		engine simnet.Engine
	}{{"auto", simnet.EngineAuto}, {"concurrent", simnet.EngineConcurrent}} {
		o := simnet.DefaultOptions()
		o.Engine = tc.engine
		_, err = mpi.RunContext(context.Background(), m, func(c *mpi.Comm) error {
			if _, err := c.BcastSchedule(pat, -1, 0); err == nil {
				t.Errorf("%s: BcastSchedule with invalid root should fail", tc.name)
			}
			if _, err := c.ReduceSchedule(pat, 9, 0, mpi.OpSum); err == nil {
				t.Errorf("%s: ReduceSchedule with invalid root should fail", tc.name)
			}
			if _, err := c.AllreduceSchedule(wrong, 0, mpi.OpSum); err == nil {
				t.Errorf("%s: AllreduceSchedule with mismatched process count should fail", tc.name)
			}
			if _, err := c.AllreduceSchedule(nil, 0, mpi.OpSum); err == nil || err.Error() != "mpi: nil schedule" {
				t.Errorf("%s: AllreduceSchedule with a nil schedule: %v, want a plain refusal", tc.name, err)
			}
			if _, err := c.TotalExchangeSchedule(pat, make([]any, 2)); err == nil {
				t.Errorf("%s: TotalExchangeSchedule with wrong block count should fail", tc.name)
			}
			return nil
		}, o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
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

// TestFloodAllocScalesWithEdges holds a schedule collective's data plane to
// O(P + edges) on both engines: an allreduce over StreamAllReduce at 4× the
// ranks must allocate at most 6× as much. A map of every contribution per
// rank reads about 16×.
func TestFloodAllocScalesWithEdges(t *testing.T) {
	for _, tc := range []struct {
		engine       simnet.Engine
		small, large int
	}{{simnet.EngineAuto, 1024, 4096}, {simnet.EngineConcurrent, 512, 2048}} {
		o := simnet.DefaultOptions()
		o.Engine = tc.engine
		alloc := func(p int) uint64 {
			m, err := platform.FlatClusterMachine(p)
			if err != nil {
				t.Fatal(err)
			}
			s, err := barrier.StreamAllReduce(p, 8)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = mpi.RunContext(context.Background(), m, func(c *mpi.Comm) error {
				_, err := c.AllreduceSchedule(s, float64(c.Rank()), mpi.OpSum)
				return err
			}, o)
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		small, large := alloc(tc.small), alloc(tc.large)
		ratio := float64(large) / float64(small)
		t.Logf("engine %d: P=%d allocates %d B, P=%d %d B: ratio %.1f", tc.engine, tc.small, small, tc.large, large, ratio)
		if ratio > 6 {
			t.Errorf("engine %d: allocation grows faster than ranks plus edges", tc.engine)
		}
	}
}

// TestSharedFloodBoardRunsAhead runs schedule collectives on the concurrent
// engine where their boards overlap: a broadcast root only sends, so it runs
// calls ahead while dawdling readers are still reading earlier ones, and an
// allreduce every few calls brings everyone back together. Two runs go at
// once in one process. Every rank must read each call's own values.
func TestSharedFloodBoardRunsAhead(t *testing.T) {
	const p, calls = 13, 40
	bc, err := barrier.StreamBroadcast(p, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := barrier.StreamAllReduce(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := scheduleMachine(t, p)
	o := simnet.DefaultOptions()
	o.Engine = simnet.EngineConcurrent
	var wg sync.WaitGroup
	for run := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := mpi.RunContext(context.Background(), m, func(c *mpi.Comm) error {
				for k := range calls {
					if k%10 == 9 {
						sum, err := c.AllreduceSchedule(ar, float64(1000*run+k+c.Rank()), mpi.OpSum)
						if want := float64(p*(1000*run+k) + p*(p-1)/2); err != nil || sum != want {
							return fmt.Errorf("call %d: allreduce %g (%v), want %g", k, sum, err, want)
						}
						continue
					}
					if c.Rank() != 0 && k%3 == c.Rank()%3 {
						time.Sleep(200 * time.Microsecond)
					}
					v, err := c.BcastSchedule(bc, 0, [2]int{run, k})
					if want := [2]int{run, k}; err != nil || v != want {
						return fmt.Errorf("rank %d call %d: broadcast %v (%v), want %v", c.Rank(), k, v, err, want)
					}
				}
				return nil
			}, o)
			if err != nil {
				t.Errorf("run %d: %v", run, err)
			}
		}()
	}
	wg.Wait()
}

// TestFloodViewFollowsReach floods over a reduce schedule, which delivers
// everything to its root and a subset elsewhere, on both engines: each rank's
// view must hold exactly the origins the schedule's reach set names, and a
// collective that needs every contribution must refuse on the ranks that
// lack some.
func TestFloodViewFollowsReach(t *testing.T) {
	const p = 13
	s, err := barrier.StreamReduce(p, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	reach := sched.ReachOf(s)
	m := scheduleMachine(t, p)
	for _, engine := range []simnet.Engine{simnet.EngineAuto, simnet.EngineConcurrent} {
		o := simnet.DefaultOptions()
		o.Engine = engine
		_, err := mpi.RunContext(context.Background(), m, func(c *mpi.Comm) error {
			rank := c.Rank()
			f, err := c.FloodSchedule(s, rank*10)
			if err != nil {
				return err
			}
			if f.Len() != reach.Count(rank) || f.Has(-1) || f.Has(p) {
				t.Errorf("engine %d rank %d: Len %d, want %d", engine, rank, f.Len(), reach.Count(rank))
			}
			for origin := range p {
				v, ok := f.Get(origin)
				if want := reach.Has(rank, origin); ok != want || f.Has(origin) != want || (ok && v != origin*10) {
					t.Errorf("engine %d rank %d: Get(%d) = %v, %t; reached: %t", engine, rank, origin, v, ok, want)
				}
			}
			_, err = c.AllgatherSchedule(s, rank)
			if (err == nil) != (reach.Count(rank) == p) {
				t.Errorf("engine %d rank %d: allgather over a reduce schedule: %v", engine, rank, err)
			}
			return nil
		}, o)
		if err != nil {
			t.Fatalf("engine %d: %v", engine, err)
		}
	}
}
