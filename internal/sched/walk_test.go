package sched_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"hbsp/internal/barrier"
	"hbsp/internal/bsp"
	"hbsp/internal/fault"
	"hbsp/internal/platform"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
)

// withProcs runs fn under GOMAXPROCS procs, which sets how many workers the
// per-rank walk may split a wide stage across (1: the caller alone).
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// sameResult requires got to be want bit for bit: per-rank times, makespan,
// traffic counters and the collapse diagnostic.
func sameResult(t *testing.T, tag string, want, got *simnet.Result) {
	t.Helper()
	for r := range want.Times {
		if math.Float64bits(got.Times[r]) != math.Float64bits(want.Times[r]) {
			t.Fatalf("%s rank %d: %v, one worker %v", tag, r, got.Times[r], want.Times[r])
		}
	}
	if got.MakeSpan != want.MakeSpan || got.Messages != want.Messages || got.Bytes != want.Bytes || got.Collapse != want.Collapse {
		t.Fatalf("%s: makespan %v, traffic %d/%d, collapse %+v; one worker %v, %d/%d, %+v", tag,
			got.MakeSpan, got.Messages, got.Bytes, got.Collapse, want.MakeSpan, want.Messages, want.Bytes, want.Collapse)
	}
}

// xeonMachine is the heterogeneous Xeon cluster at p ranks: no two pairs
// price alike, so no run collapses and every stage is walked rank by rank.
func xeonMachine(t testing.TB, p int) *platform.Machine {
	t.Helper()
	m, err := platform.XeonClusterMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// musts returns a check of a schedule constructor's error.
func musts(t testing.TB) func(sched.Schedule, error) sched.Schedule {
	return func(s sched.Schedule, err error) sched.Schedule {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

// TestSharedPerRankWalk holds the split per-rank walk to the one-worker walk
// bit for bit. Every row runs under GOMAXPROCS 1 (the caller walks alone), 2
// and 4 (up to min(4, P/512) workers): circulant schedules at P=1,024 and at
// an odd P (uneven blocks); generic edge lists at P=2,048 with in-degree P−1
// into one rank (the linear barrier) and with stages of every width (a 4-ary
// tree); acks on and off; two executions; three fault plans; three sweep
// points on one kept arena; and the gate path of a concurrent run.
func TestSharedPerRankWalk(t *testing.T) {
	ctx := context.Background()
	o := simnet.DefaultOptions()
	runs := func(m simnet.Machine, s sched.Schedule, execs int, opts ...simnet.Options) func(t *testing.T) []*simnet.Result {
		return func(t *testing.T) []*simnet.Result {
			var out []*simnet.Result
			for _, o := range opts {
				res, err := sched.RunSchedule(ctx, m, s, execs, o)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, res)
			}
			return out
		}
	}
	noAck := o
	noAck.AckSends = false

	const p = 1024
	m, must := xeonMachine(t, p), musts(t)
	allreduce := must(barrier.StreamAllReduce(p, 256))
	base, err := sched.RunSchedule(ctx, m, allreduce, 1, o)
	if err != nil {
		t.Fatal(err)
	}
	span := base.MakeSpan
	var faulted []simnet.Options
	for _, plan := range []*fault.Plan{
		{Seed: 5, Slowdowns: []fault.Slowdown{{Rank: 7, Factor: 1.5, Jitter: 0.3}, {Rank: 700, Factor: 2, Jitter: 0.2, Start: span * 0.2, End: span * 0.7}}},
		{Links: []fault.LinkRule{{Src: -1, Dst: -1, Class: -1, LatencyFactor: 2, BetaFactor: 3, Start: span * 0.25, End: span * 0.6}}},
		{FailStops: []fault.FailStop{{Rank: 0, FailAt: span * 0.4, Restart: span * 0.1, Checkpoint: span * 0.15}, {Rank: p - 1, FailAt: span * 0.7, Restart: span * 0.05}}},
	} {
		fo := o
		fo.Faults = plan
		faulted = append(faulted, fo)
	}

	rows := []struct {
		name  string
		heavy bool
		run   func(t *testing.T) []*simnet.Result
	}{
		{"total exchange P=1024", true, runs(m, must(barrier.StreamTotalExchange(p, 64)), 1, o)},
		{"total exchange P=1031", true, runs(xeonMachine(t, 1031), must(barrier.StreamTotalExchange(1031, 64)), 1, o)},
		{"dissemination P=1024, acks on and off, two executions", false,
			runs(m, must(barrier.StreamDissemination(p)), 2, o, noAck)},
		{"dissemination P=1031, acks on and off, two executions", false,
			runs(xeonMachine(t, 1031), must(barrier.StreamDissemination(1031)), 2, o, noAck)},
		{"linear barrier P=2048", false, runs(xeonMachine(t, 2048), must(barrier.Linear(2048, 5)), 1, o, noAck)},
		{"4-ary tree P=2048", false, runs(xeonMachine(t, 2048), must(barrier.KAryTree(2048, 4)), 2, o)},
		{"allreduce P=1024 under jittered slowdowns, a windowed wildcard link rule, fail-stops", false,
			runs(m, allreduce, 1, faulted...)},
		{"three sweep points P=1024", false, func(t *testing.T) []*simnet.Result {
			sw, err := sched.NewSweepEvaluator(m, sched.SweepOptions{AckSends: true, ComputeEmpty: true})
			if err != nil {
				t.Fatal(err)
			}
			defer sw.Release()
			var out []*simnet.Result
			for _, bytes := range []int{64, 4096, 1 << 20} {
				res, err := sw.Run(ctx, nil, must(barrier.StreamAllGather(p, bytes)), 1)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, res)
			}
			return out
		}},
		{"gate: BSP count exchange P=2048", false, func(t *testing.T) []*simnet.Result {
			res, err := bsp.RunContext(ctx, xeonMachine(t, 2048), bsp.RunConfig{}, func(c *bsp.Ctx) error {
				for s := 0; s < 2; s++ {
					c.Compute(1e-6 * float64(c.Pid()%7+1))
					if err := c.Sync(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return []*simnet.Result{res}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.heavy && testing.Short() {
				t.Skip("P−1 stages of P edges: run without -short")
			}
			var want []*simnet.Result
			for _, procs := range []int{1, 2, 4} {
				var got []*simnet.Result
				withProcs(procs, func() { got = row.run(t) })
				if procs == 1 {
					want = got
					continue
				}
				for i := range got {
					sameResult(t, fmt.Sprintf("GOMAXPROCS=%d, run %d", procs, i), want[i], got[i])
				}
			}
		})
	}
}

// waitGoroutines fails unless the goroutine count is back at base within a
// second.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; i < 1000 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines, %d before the run", n, base)
	}
}

// panicPricer prices every pair but those into the highest rank, where its
// Pair panics: the worker of the top block panics mid-stage while the others
// reach the barrier.
type panicPricer struct{ *platform.Machine }

func (m panicPricer) Pair(i, j int) (lat, gap, beta, ovh, ret float64, sameNIC bool) {
	if j == m.Procs()-1 {
		panic("pair pricing bug")
	}
	return m.Machine.Pair(i, j)
}

// TestSharedWalkPanics pins that a panic in a worker of the split walk is the
// caller's: every worker is joined, the panic is re-raised on the goroutine
// that called RunSchedule (where a server's recover turns it into an error
// reply), and no goroutine is left behind. The one-worker walk panics on the
// caller by construction.
func TestSharedWalkPanics(t *testing.T) {
	const p = 1024
	m, must := panicPricer{xeonMachine(t, p)}, musts(t)
	s := must(barrier.StreamDissemination(p))
	for _, procs := range []int{1, 2} {
		base := runtime.NumGoroutine()
		var got any
		withProcs(procs, func() {
			defer func() { got = recover() }()
			sched.RunSchedule(context.Background(), m, s, 1, simnet.DefaultOptions())
		})
		if got != "pair pricing bug" {
			t.Fatalf("GOMAXPROCS=%d: recovered %v, want the pricer's panic", procs, got)
		}
		waitGoroutines(t, base)
	}
}

// TestSharedWalkCancels pins that the split walk answers cancellation and the
// wall-clock deadline as the one-worker walk does — ErrAborted wrapping the
// cause, ErrDeadline — from inside one execution, with every worker joined.
func TestSharedWalkCancels(t *testing.T) {
	const p = 1024
	m := xeonMachine(t, p)
	withProcs(2, func() {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		s := &cancelSchedule{p: p, stages: 40000, cancelAt: 8, cancel: cancel}
		if _, err := sched.RunSchedule(ctx, m, s, 1, simnet.DefaultOptions()); !errors.Is(err, simnet.ErrAborted) || !errors.Is(err, context.Canceled) {
			t.Fatalf("want ErrAborted wrapping context.Canceled, got %v", err)
		}
		waitGoroutines(t, base)

		o := simnet.DefaultOptions()
		o.Deadline = 20 * time.Millisecond // past the frame's first poll, well inside the walk's seconds
		s = &cancelSchedule{p: p, stages: 40000, cancelAt: -1, cancel: func() {}}
		if _, err := sched.RunSchedule(context.Background(), m, s, 1, o); !errors.Is(err, simnet.ErrDeadline) {
			t.Fatalf("want ErrDeadline, got %v", err)
		}
		waitGoroutines(t, base)
	})
}

// BenchmarkPerRankWalk times the per-rank stage walk in messages per second:
// one total exchange of 64-byte messages on the Xeon cluster, at P=1,024 and
// 2,048 (split across the cores), at P=1,024 with the caller on a thread of
// its own (runtime.LockOSThread: the caller must only wait, never take part in
// the workers' barrier), and with GOMAXPROCS callers at once (the split walk
// must not lose to the one-worker walk when every core already has a caller).
func BenchmarkPerRankWalk(b *testing.B) {
	ctx := context.Background()
	bench := func(b *testing.B, p int, parallel bool) {
		m, must := xeonMachine(b, p), musts(b)
		s := must(barrier.StreamTotalExchange(p, 64))
		o := simnet.DefaultOptions()
		walk := func() {
			if _, err := sched.RunSchedule(ctx, m, s, 1, o); err != nil {
				b.Error(err)
			}
		}
		walk()
		b.ResetTimer()
		if parallel {
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					walk()
				}
			})
		} else {
			for i := 0; i < b.N; i++ {
				walk()
			}
		}
		b.ReportMetric(float64(p*(p-1))*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
	}
	for _, p := range []int{1024, 2048} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) { bench(b, p, false) })
	}
	b.Run("locked", func(b *testing.B) {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		bench(b, 1024, false)
	})
	b.Run("contended", func(b *testing.B) { bench(b, 1024, true) })
}
