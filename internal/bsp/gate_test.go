package bsp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"hbsp/internal/platform"
	"hbsp/internal/simnet"
)

func gateMachine(t *testing.T, procs int) *platform.Machine {
	t.Helper()
	m, err := platform.Xeon8x2x4().Machine(procs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSyncGateUnwindsOnRankError pins the teardown when one rank aborts
// before Sync: the remaining ranks are parked at the run's gate (the default
// engine) or blocked in the count exchange's receives (the concurrent one),
// and the failing rank tears the run down at once. The run returns the
// abort, not ErrDeadline, long before the deadline.
func TestSyncGateUnwindsOnRankError(t *testing.T) {
	for _, engine := range []simnet.Engine{simnet.EngineAuto, simnet.EngineConcurrent} {
		o := simnet.DefaultOptions()
		o.Engine, o.Deadline = engine, 3*time.Second
		var abort error
		start := time.Now()
		_, err := RunContext(context.Background(), gateMachine(t, 8), RunConfig{Options: &o}, func(c *Ctx) error {
			if c.Pid() == 0 {
				abort = c.Abort("rank 0 gives up before the superstep ends")
				return abort
			}
			return c.Sync()
		})
		if !errors.Is(err, abort) || errors.Is(err, simnet.ErrDeadline) {
			t.Fatalf("engine %v: want the abort alone, got %v", engine, err)
		}
		if elapsed := time.Since(start); elapsed >= time.Second {
			t.Fatalf("engine %v: teardown took %v; the peers waited on the failed rank", engine, elapsed)
		}
	}
}

// TestSyncGateUnwindsOnContextCancel pins context cancellation while ranks
// are parked at the gate: the run aborts with an error wrapping ErrAborted
// and the cancellation cause, identical to cancellation of ranks blocked in
// receives.
func TestSyncGateUnwindsOnContextCancel(t *testing.T) {
	m := gateMachine(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	o := simnet.DefaultOptions()
	_, err := RunContext(ctx, m, RunConfig{Options: &o}, func(c *Ctx) error {
		if c.Pid() == 0 {
			// Leave the others parked at the gate, then pull the plug.
			time.Sleep(50 * time.Millisecond)
			cancel()
			return fmt.Errorf("rank 0 cancelled the run")
		}
		return c.Sync()
	})
	if !errors.Is(err, simnet.ErrAborted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrAborted wrapping context.Canceled, got %v", err)
	}
}

// TestSyncGateSingleRank pins the degenerate rendezvous: at P=1 the sole
// rank is always the gate leader and the exchange evaluates to its own row.
func TestSyncGateSingleRank(t *testing.T) {
	m := gateMachine(t, 1)
	res, err := Run(m, func(c *Ctx) error { return c.Sync() })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) != 1 {
		t.Fatalf("bad result: %+v", res)
	}
}

// TestSyncAllocScalesWithMessages holds the superstep to O(P + messages) on
// both engines: a one-put ring with a 1-element area and two Syncs allocates
// about 4× as much at 4× the ranks. A count exchange or mailbox index sized
// by P on every rank reads about 15×.
func TestSyncAllocScalesWithMessages(t *testing.T) {
	ring := func(c *Ctx) error {
		c.PushReg("x", make([]float64, 1))
		if err := c.Sync(); err != nil {
			return err
		}
		if err := c.Put((c.Pid()+1)%c.NProcs(), "x", 0, []float64{1}); err != nil {
			return err
		}
		return c.Sync()
	}
	for _, engine := range []simnet.Engine{simnet.EngineAuto, simnet.EngineConcurrent} {
		o := simnet.DefaultOptions()
		o.Engine = engine
		alloc := func(p int) uint64 {
			m, err := platform.FlatClusterMachine(p)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Run(m, ring, o); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		small, large := alloc(512), alloc(2048)
		ratio := float64(large) / float64(small)
		t.Logf("engine %d: P=512 allocates %d B, P=2048 %d B: ratio %.1f", engine, small, large, ratio)
		if ratio > 6 {
			t.Errorf("engine %d: allocation grows faster than ranks plus messages", engine)
		}
	}
}
