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

// TestSyncGateUnwindsOnRankError pins the teardown of the direct-engine
// rendezvous: when one rank errors out before Sync, the remaining ranks are
// parked at the run's gate and can only be released by the deadline teardown
// — exactly like ranks blocked in receives on the concurrent engine. The run
// must return ErrDeadline promptly, with every rank goroutine unwound.
func TestSyncGateUnwindsOnRankError(t *testing.T) {
	m := gateMachine(t, 8)
	o := simnet.DefaultOptions()
	o.Deadline = 200 * time.Millisecond
	start := time.Now()
	_, err := RunContext(context.Background(), m, RunConfig{Options: &o}, func(c *Ctx) error {
		if c.Pid() == 0 {
			return fmt.Errorf("rank 0 gives up before the superstep ends")
		}
		return c.Sync()
	})
	if !errors.Is(err, simnet.ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("teardown took %v; gate waiters were not woken", elapsed)
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
