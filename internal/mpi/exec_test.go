package mpi_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"hbsp/internal/barrier"
	"hbsp/internal/bsp"
	"hbsp/internal/mpi"
	"hbsp/internal/platform"
	"hbsp/internal/simnet"
)

// TestSharedScheduleEntry holds the three schedule executions on rank
// goroutines — barrier.Execute, the flood behind Comm.BarrierSchedule and the
// count exchange of bsp's Sync — to their one entry, mpi.ExecSchedule.
func TestSharedScheduleEntry(t *testing.T) {
	const procs = 4
	m, err := platform.Xeon8x2x4().Machine(procs)
	if err != nil {
		t.Fatal(err)
	}
	// options are the default options under the engine, with a deadline no
	// run here may reach.
	options := func(engine simnet.Engine) simnet.Options {
		o := simnet.DefaultOptions()
		o.Engine = engine
		o.Deadline = 20 * time.Second
		return o
	}
	// execute runs op on every rank; a rank's panic (Execute has no error to
	// return) ends the run with an error.
	execute := func(o simnet.Options, op func(c *mpi.Comm) error) error {
		_, err := mpi.RunContext(context.Background(), m, op, o)
		return err
	}

	t.Run("ForeignP", func(t *testing.T) {
		// Walking the 8-rank schedule would wait for ranks 4..7 until the
		// deadline; the 2-rank one would index past its stage rows.
		for _, n := range []int{2 * procs, procs / 2} {
			foreign, err := barrier.Dissemination(n)
			if err != nil {
				t.Fatal(err)
			}
			sync, err := bsp.NewScheduleSynchronizer(foreign)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("mpi: schedule for %d processes on a %d-process run", n, procs)
			for _, engine := range []simnet.Engine{simnet.EngineAuto, simnet.EngineConcurrent} {
				o := options(engine)
				for name, run := range map[string]func() error{
					"Execute": func() error {
						return execute(o, func(c *mpi.Comm) error { barrier.Execute(c, foreign); return nil })
					},
					"BarrierSchedule": func() error {
						return execute(o, func(c *mpi.Comm) error { return c.BarrierSchedule(foreign) })
					},
					"Sync": func() error {
						_, err := bsp.RunWith(m, sync, func(c *bsp.Ctx) error { return c.Sync() }, o)
						return err
					},
				} {
					if err := run(); err == nil || !strings.Contains(err.Error(), want) {
						t.Errorf("%s, %d-rank schedule, engine %d: %v, want %q", name, n, engine, err, want)
					}
				}
			}
		}
	})

	t.Run("Disagreement", func(t *testing.T) {
		a, err := barrier.Dissemination(procs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := barrier.Dissemination(procs) // equal structure, another value
		if err != nil {
			t.Fatal(err)
		}
		pick := func(c *mpi.Comm) mpi.Schedule {
			if c.Rank()%2 == 0 {
				return a
			}
			return b
		}
		o := options(simnet.EngineAuto)
		for name, op := range map[string]func(c *mpi.Comm) error{
			"Execute":         func(c *mpi.Comm) error { barrier.Execute(c, pick(c)); return nil },
			"BarrierSchedule": func(c *mpi.Comm) error { return c.BarrierSchedule(pick(c)) },
			// One value, but half the ranks execute it and half flood it.
			"Mixed": func(c *mpi.Comm) error {
				if c.Rank()%2 == 0 {
					barrier.Execute(c, a)
					return nil
				}
				return c.BarrierSchedule(a)
			},
		} {
			start := time.Now()
			err := execute(o, op)
			if err == nil || errors.Is(err, simnet.ErrDeadline) || !strings.Contains(err.Error(), "executes a different schedule") {
				t.Errorf("%s: %v, want the disagreement error", name, err)
			}
			if took := time.Since(start); took > o.Deadline/2 {
				t.Errorf("%s: the run ended after %v", name, took)
			}
		}
	})

	t.Run("CollapsedExecute", func(t *testing.T) {
		flat, err := platform.FlatClusterMachine(64)
		if err != nil {
			t.Fatal(err)
		}
		pat, err := barrier.Dissemination(64)
		if err != nil {
			t.Fatal(err)
		}
		run := func(mode simnet.CollapseMode) *simnet.Result {
			o := simnet.DefaultOptions()
			o.SymmetryCollapse = mode
			res, err := mpi.RunContext(context.Background(), flat, func(c *mpi.Comm) error {
				for range 3 {
					barrier.Execute(c, pat)
				}
				return nil
			}, o)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		on, off := run(simnet.CollapseAuto), run(simnet.CollapseOff)
		if !on.Collapse.Applied {
			t.Fatalf("Execute on the noise-free flat machine: collapse %+v, want applied", on.Collapse)
		}
		if off.Collapse.Applied || !slices.Equal(on.Times, off.Times) {
			t.Fatalf("collapsed times %v differ from CollapseOff's %v (collapse %+v)", on.Times, off.Times, off.Collapse)
		}
	})
}
