package hbsp

// In-package test: it runs the same programs once through the internal
// engines (hbsp/internal/...) and once through the public facade, and
// requires the per-rank virtual times to be bit-identical — the guarantee
// that the API redesign is a pure surface change with no timing drift.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	ibsp "hbsp/internal/bsp"
	impi "hbsp/internal/mpi"
	"hbsp/internal/platform"
	"hbsp/internal/simnet"

	"hbsp/bsp"
	"hbsp/collective"
	"hbsp/mpi"
	"hbsp/sim"
	"hbsp/trace"
)

func goldenMachine(t *testing.T, procs int) *platform.Machine {
	t.Helper()
	m, err := platform.Xeon8x2x4().Machine(procs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func requireIdenticalTimes(t *testing.T, surface string, facade, internal *simnet.Result) {
	t.Helper()
	if len(facade.Times) != len(internal.Times) {
		t.Fatalf("%s: %d ranks via facade, %d via internal engine", surface, len(facade.Times), len(internal.Times))
	}
	for i := range facade.Times {
		if facade.Times[i] != internal.Times[i] {
			t.Errorf("%s rank %d: facade time %.17g != internal time %.17g",
				surface, i, facade.Times[i], internal.Times[i])
		}
	}
	if facade.MakeSpan != internal.MakeSpan || facade.Messages != internal.Messages || facade.Bytes != internal.Bytes {
		t.Errorf("%s: facade summary (%.17g, %d, %d) != internal (%.17g, %d, %d)",
			surface, facade.MakeSpan, facade.Messages, facade.Bytes,
			internal.MakeSpan, internal.Messages, internal.Bytes)
	}
}

// TestGoldenFacadeBSP pins that a BSP program (supersteps, one-sided
// communication, BSMP, a user collective) runs bit-identically through
// Session.RunBSP and through the internal bsp engine, with noise enabled.
func TestGoldenFacadeBSP(t *testing.T) {
	const procs = 16
	program := func(c *ibsp.Ctx) error {
		area := make([]float64, c.NProcs())
		c.PushReg("x", area)
		if err := c.Sync(); err != nil {
			return err
		}
		right := (c.Pid() + 1) % c.NProcs()
		if err := c.Put(right, "x", c.Pid(), []float64{1}); err != nil {
			return err
		}
		if err := c.Send(right, 7, []float64{2, 3}); err != nil {
			return err
		}
		if err := c.Sync(); err != nil {
			return err
		}
		if _, err := c.AllReduce([]float64{float64(c.Pid())}, ibsp.OpSum); err != nil {
			return err
		}
		return c.Sync()
	}

	internal, err := ibsp.Run(goldenMachine(t, procs).WithRunSeed(11), program)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := New(goldenMachine(t, procs), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	facade, err := sess.RunBSP(context.Background(), bsp.Program(program))
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalTimes(t, "bsp", facade, internal)
}

// TestGoldenFacadeMPI pins the MPI surface the same way, including a
// schedule-driven collective.
func TestGoldenFacadeMPI(t *testing.T) {
	const procs = 12
	body := func(c *impi.Comm) error {
		c.Barrier()
		if c.Allreduce(1, impi.OpSum) != procs {
			return fmt.Errorf("rank %d: bad allreduce", c.Rank())
		}
		c.Bcast(42, 0)
		return nil
	}

	internal, err := impi.Run(goldenMachine(t, procs).WithRunSeed(5), body)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := New(goldenMachine(t, procs), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	facade, err := sess.RunMPI(context.Background(), func(c *mpi.Comm) error { return body(c) })
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalTimes(t, "mpi", facade, internal)
}

// TestGoldenFacadeRaw pins the raw simulator surface (Session.Run vs
// simnet.Run) on an all-pairs exchange.
func TestGoldenFacadeRaw(t *testing.T) {
	const procs = 16
	body := func(p *simnet.Proc) error {
		n := p.Size()
		var reqs []*simnet.Request
		for d := 1; d < n; d++ {
			reqs = append(reqs, p.Irecv((p.Rank()-d+n)%n, d))
		}
		p.Compute(float64(p.Rank()) * 1e-7)
		for d := 1; d < n; d++ {
			p.Post((p.Rank()+d)%n, d, 8*d, nil)
		}
		for _, r := range reqs {
			p.Wait(r)
		}
		return nil
	}

	internal, err := simnet.Run(goldenMachine(t, procs).WithRunSeed(42), body)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := New(goldenMachine(t, procs), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	facade, err := sess.Run(context.Background(), func(p *sim.Proc) error { return body(p) })
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalTimes(t, "sim", facade, internal)
}

// runEngines runs one session-built workload twice — default (direct
// discrete-event fast path) and WithConcurrentEngine — with a recorder
// attached to each, and requires bit-identical per-rank times and
// byte-identical merged event streams. It is the facade-level engine diff
// demanded by the two-engine architecture: the evaluator must be a pure
// execution-strategy change, invisible in every observable output.
func runEngines(t *testing.T, name string, seed int64, run func(s *Session) (*sim.Result, error), opts ...Option) {
	t.Helper()
	type outcome struct {
		res    *sim.Result
		events string
	}
	runWith := func(extra ...Option) outcome {
		rec := trace.NewRecorder()
		all := append(append([]Option{WithSeed(seed), WithRecorder(rec)}, opts...), extra...)
		sess, err := New(goldenMachine(t, 16), all...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := run(sess)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr, err := rec.Trace()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := trace.WriteEvents(&buf, tr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return outcome{res: res, events: buf.String()}
	}
	direct := runWith()
	concurrent := runWith(WithConcurrentEngine())
	requireIdenticalTimes(t, name, direct.res, concurrent.res)
	if direct.events != concurrent.events {
		t.Errorf("%s: traced event streams differ between engines", name)
	}
}

// TestGoldenEnginesBSP diffs the engines on the full BSP surface: supersteps
// with one-sided traffic and BSMP, plus every user-facing collective (which
// execute verified schedules through the mpi flood).
func TestGoldenEnginesBSP(t *testing.T) {
	program := func(c *bsp.Ctx) error {
		area := make([]float64, c.NProcs())
		c.PushReg("x", area)
		if err := c.Sync(); err != nil {
			return err
		}
		right := (c.Pid() + 1) % c.NProcs()
		if err := c.Put(right, "x", c.Pid(), []float64{1}); err != nil {
			return err
		}
		if err := c.Send(right, 7, []float64{2, 3}); err != nil {
			return err
		}
		if err := c.Sync(); err != nil {
			return err
		}
		if _, err := c.Broadcast(0, area); err != nil {
			return err
		}
		if _, err := c.Reduce(1, area, bsp.OpSum); err != nil {
			return err
		}
		if _, err := c.AllReduce([]float64{float64(c.Pid())}, bsp.OpSum); err != nil {
			return err
		}
		if _, err := c.AllGather([]float64{float64(c.Pid())}); err != nil {
			return err
		}
		blocks := make([][]float64, c.NProcs())
		for j := range blocks {
			blocks[j] = []float64{float64(j)}
		}
		if _, err := c.TotalExchange(blocks); err != nil {
			return err
		}
		return c.Sync()
	}
	runEngines(t, "bsp-engines", 23, func(s *Session) (*sim.Result, error) {
		return s.RunBSP(context.Background(), program)
	})
}

// TestGoldenEnginesBSPScheduleSynchronizer diffs the engines with a verified
// schedule executing the count exchange (the schedule-synchronizer fast
// path, payload sizes derived from the knowledge recursion).
func TestGoldenEnginesBSPScheduleSynchronizer(t *testing.T) {
	diss, err := collective.Dissemination(16)
	if err != nil {
		t.Fatal(err)
	}
	program := func(c *bsp.Ctx) error {
		if err := c.Sync(); err != nil {
			return err
		}
		right := (c.Pid() + 1) % c.NProcs()
		if err := c.Send(right, 9, []float64{1}); err != nil {
			return err
		}
		return c.Sync()
	}
	runEngines(t, "bsp-schedule-sync", 31, func(s *Session) (*sim.Result, error) {
		return s.RunBSP(context.Background(), program)
	}, WithScheduleSynchronizer(diss))
}

func mustPattern(t *testing.T, build func() (*collective.Pattern, error)) *collective.Pattern {
	t.Helper()
	pat, err := build()
	if err != nil {
		t.Fatal(err)
	}
	return pat
}

// TestGoldenEnginesMPI diffs the engines on the MPI surface: barriers,
// pattern executions and schedule-driven data collectives.
func TestGoldenEnginesMPI(t *testing.T) {
	tree := mustPattern(t, func() (*collective.Pattern, error) { return collective.Tree(16) })
	bcast := mustPattern(t, func() (*collective.Pattern, error) { return collective.Broadcast(16, 2, 64) })
	allred := mustPattern(t, func() (*collective.Pattern, error) { return collective.AllReduce(16, 8) })
	runEngines(t, "mpi-engines", 37, func(s *Session) (*sim.Result, error) {
		return s.RunMPI(context.Background(), func(c *mpi.Comm) error {
			c.Barrier()
			collective.Execute(c, tree)
			if _, err := c.BcastSchedule(bcast, 2, float64(c.Rank())); err != nil {
				return err
			}
			v, err := c.AllreduceSchedule(allred, 1, mpi.OpSum)
			if err != nil {
				return err
			}
			if v != 16 {
				return fmt.Errorf("rank %d: bad allreduce %v", c.Rank(), v)
			}
			if err := c.BarrierSchedule(tree); err != nil {
				return err
			}
			return nil
		})
	})
}
