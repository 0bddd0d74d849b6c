package hbsp_test

// External test package: exercises the facade exactly the way a user program
// outside internal/ would — only public packages are imported.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"hbsp"
	"hbsp/bsp"
	"hbsp/cluster"
	"hbsp/collective"
	"hbsp/mpi"
	"hbsp/sim"
	"hbsp/trace"
)

func testMachine(t *testing.T, procs int) *cluster.Machine {
	t.Helper()
	m, err := cluster.Xeon8x2x4().Machine(procs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestNewOptionMatrix sweeps the functional options through valid and
// invalid values and checks that New accepts or rejects each combination
// with the right typed error.
func TestNewOptionMatrix(t *testing.T) {
	m := testMachine(t, 8)
	diss, err := collective.Dissemination(8)
	if err != nil {
		t.Fatal(err)
	}
	bcast, err := collective.Broadcast(8, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		opts    []hbsp.Option
		wantErr error
	}{
		{"no options", nil, nil},
		{"seed", []hbsp.Option{hbsp.WithSeed(7)}, nil},
		{"deadline", []hbsp.Option{hbsp.WithDeadline(time.Minute)}, nil},
		{"acks off", []hbsp.Option{hbsp.WithAckSends(false)}, nil},
		{"collapse off", []hbsp.Option{hbsp.WithSymmetryCollapse(false)}, nil},
		{"collapse auto", []hbsp.Option{hbsp.WithSymmetryCollapse(true)}, nil},
		{"synchronizer", []hbsp.Option{hbsp.WithSynchronizer(bsp.DefaultSynchronizer())}, nil},
		{"schedule synchronizer", []hbsp.Option{hbsp.WithScheduleSynchronizer(diss)}, nil},
		{"everything", []hbsp.Option{
			hbsp.WithSeed(42), hbsp.WithDeadline(30 * time.Second), hbsp.WithAckSends(true),
			hbsp.WithScheduleSynchronizer(diss), hbsp.WithRecorder(trace.NewRecorder()),
		}, nil},
		{"recorder", []hbsp.Option{hbsp.WithRecorder(trace.NewRecorder())}, nil},
		{"nil recorder", []hbsp.Option{hbsp.WithRecorder(nil)}, hbsp.ErrOption},
		{"disabled recorder", []hbsp.Option{hbsp.WithRecorder(trace.Disabled)}, hbsp.ErrOption},
		{"zero deadline", []hbsp.Option{hbsp.WithDeadline(0)}, hbsp.ErrOption},
		{"negative deadline", []hbsp.Option{hbsp.WithDeadline(-time.Second)}, hbsp.ErrOption},
		{"nil synchronizer", []hbsp.Option{hbsp.WithSynchronizer(nil)}, hbsp.ErrOption},
		{"rooted sync schedule", []hbsp.Option{hbsp.WithScheduleSynchronizer(bcast)}, hbsp.ErrOption},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := hbsp.New(m, tc.opts...)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				if sess.Procs() != 8 {
					t.Fatalf("Procs = %d, want 8", sess.Procs())
				}
				return
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("New err = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// fakeMachine satisfies sim.Machine but has no profile and no reseeding.
type fakeMachine struct{ procs int }

func (f fakeMachine) Procs() int                      { return f.procs }
func (f fakeMachine) Latency(i, j int) float64        { return 1e-6 }
func (f fakeMachine) Gap(i, j int) float64            { return 1e-7 }
func (f fakeMachine) Beta(i, j int) float64           { return 1e-9 }
func (f fakeMachine) Overhead(i, j int) float64       { return 1e-7 }
func (f fakeMachine) SelfOverhead(i int) float64      { return 1e-7 }
func (f fakeMachine) NIC(i int) int                   { return i }
func (f fakeMachine) Noise(r int, seq uint64) float64 { return 1 }
func (f fakeMachine) Pair(i, j int) (lat, gap, beta, ovh, ret float64, sameNIC bool) {
	return 1e-6, 1e-7, 1e-9, 1e-7, 1e-6, i == j
}

// TestNewValidation covers machine validation: nil machines, profile-backed
// machines with broken profiles (built through the MachineFor bypass), and
// WithSeed on machines that cannot reseed.
func TestNewValidation(t *testing.T) {
	if _, err := hbsp.New(nil); !errors.Is(err, hbsp.ErrInvalidMachine) {
		t.Errorf("New(nil) err = %v, want ErrInvalidMachine", err)
	}

	// A structurally broken profile: Machine() never validates, so without
	// the facade check this NaN-propagates silently.
	broken := cluster.Xeon8x2x4()
	broken.SelfOverhead = 0
	bm, err := broken.Machine(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hbsp.New(bm); !errors.Is(err, hbsp.ErrInvalidMachine) {
		t.Errorf("New(broken profile) err = %v, want ErrInvalidMachine", err)
	}

	// A custom machine without reseeding support: fine without WithSeed,
	// rejected with it.
	if _, err := hbsp.New(fakeMachine{procs: 4}); err != nil {
		t.Errorf("New(custom machine) = %v, want nil", err)
	}
	if _, err := hbsp.New(fakeMachine{procs: 4}, hbsp.WithSeed(1)); !errors.Is(err, hbsp.ErrOption) {
		t.Errorf("New(custom machine, WithSeed) err = %v, want ErrOption", err)
	}
}

// TestRunBSPWithCollectives is the acceptance path: build a machine, run a
// BSP program through the session with options, call AllReduce, and check
// the deterministic result.
func TestRunBSPWithCollectives(t *testing.T) {
	sess, err := hbsp.New(testMachine(t, 8), hbsp.WithSeed(3), hbsp.WithDeadline(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.RunBSP(context.Background(), func(c *bsp.Ctx) error {
		sum, err := c.AllReduce([]float64{float64(c.Pid() + 1)}, bsp.OpSum)
		if err != nil {
			return err
		}
		if sum[0] != 36 {
			t.Errorf("pid %d: AllReduce = %v, want 36", c.Pid(), sum)
		}
		return c.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MakeSpan <= 0 {
		t.Fatalf("MakeSpan = %g, want > 0", res.MakeSpan)
	}
}

// TestSharedScheduleSessionAcrossConcurrentRuns holds the Session to its
// "safe for concurrent runs" for the collectives' schedules: four runs at
// once, each asking for 200 allreduce schedules no other call asked for. The
// ranks of one collective call must be handed one schedule value whatever the
// other runs do (on a schedule cache the runs shared, which reset under them,
// this failed with "ranks disagree on the flooded schedule").
func TestSharedScheduleSessionAcrossConcurrentRuns(t *testing.T) {
	const procs, runs, calls = 16, 4, 200
	sess, err := hbsp.New(testMachine(t, procs))
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, runs)
	for run := 0; run < runs; run++ {
		go func() {
			_, err := sess.RunBSP(context.Background(), func(c *bsp.Ctx) error {
				for i := 0; i < calls; i++ {
					v := make([]float64, 1+run+runs*i) // lengths pairwise distinct across runs and calls
					v[0] = float64(c.Pid())
					sum, err := c.AllReduce(v, bsp.OpSum)
					if err != nil {
						return err
					}
					if sum[0] != procs*(procs-1)/2 {
						return fmt.Errorf("run %d call %d: AllReduce = %v", run, i, sum[0])
					}
				}
				return nil
			})
			errs <- err
		}()
	}
	for run := 0; run < runs; run++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestContextCancellationMidSuperstep cancels a BSP run whose processes are
// blocked inside Sync (process 0 returned early, so the count exchange can
// never complete) and checks the typed abort error.
func TestContextCancellationMidSuperstep(t *testing.T) {
	sess, err := hbsp.New(testMachine(t, 8), hbsp.WithDeadline(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	res, err := sess.RunBSP(ctx, func(c *bsp.Ctx) error {
		if c.Pid() == 0 {
			return nil // deserts the superstep: everyone else blocks in Sync
		}
		return c.Sync()
	})
	if res != nil || !errors.Is(err, hbsp.ErrAborted) {
		t.Fatalf("RunBSP = (%v, %v), want ErrAborted", res, err)
	}
}

// TestRunMPIAndRawRun covers the other two run surfaces through the facade.
func TestRunMPIAndRawRun(t *testing.T) {
	sess, err := hbsp.New(testMachine(t, 6), hbsp.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.RunMPI(context.Background(), func(c *mpi.Comm) error {
		got := c.Allreduce(float64(c.Rank()), mpi.OpSum)
		if got != 15 {
			t.Errorf("rank %d: Allreduce = %g, want 15", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Run(context.Background(), func(p *sim.Proc) error {
		next := (p.Rank() + 1) % p.Size()
		prev := (p.Rank() - 1 + p.Size()) % p.Size()
		r := p.Irecv(prev, 1)
		p.Send(next, 1, 8, nil)
		p.Wait(r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecorderMarksSupersteps checks the superstep marks of a recorded run,
// for BSP Syncs and for MPI Barriers alike: every rank marks steps 0…n−1
// once each, in order, at virtual times no later than the makespan.
func TestRecorderMarksSupersteps(t *testing.T) {
	const procs, steps = 4, 3
	cases := []struct {
		name string
		run  func(*hbsp.Session) (*sim.Result, error)
	}{
		{"bsp", func(s *hbsp.Session) (*sim.Result, error) {
			return s.RunBSP(context.Background(), func(c *bsp.Ctx) error {
				for i := 0; i < steps; i++ {
					if err := c.Sync(); err != nil {
						return err
					}
				}
				return nil
			})
		}},
		{"mpi", func(s *hbsp.Session) (*sim.Result, error) {
			return s.RunMPI(context.Background(), func(c *mpi.Comm) error {
				for i := 0; i < steps; i++ {
					c.Compute(1e-6)
					c.Barrier()
				}
				return nil
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := trace.NewRecorder()
			sess, err := hbsp.New(testMachine(t, procs), hbsp.WithRecorder(rec))
			if err != nil {
				t.Fatal(err)
			}
			res, err := tc.run(sess)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := rec.Trace()
			if err != nil {
				t.Fatal(err)
			}
			for rank := 0; rank < procs; rank++ {
				next := 0
				for _, ev := range tr.LaneEvents(rank) {
					if ev.Kind != trace.KindSuperstep {
						continue
					}
					if int(ev.Step) != next || ev.T1 > res.MakeSpan {
						t.Fatalf("rank %d: mark %d = step %d at %g, want step %d at or before makespan %g",
							rank, next, ev.Step, ev.T1, next, res.MakeSpan)
					}
					next++
				}
				if next != steps {
					t.Errorf("rank %d marked %d supersteps, want %d", rank, next, steps)
				}
			}
		})
	}
}

// TestWithRecorderRoundTrip runs a traced BSP program through the facade and
// checks the recorded trace end to end: seed metadata from WithSeed, a
// critical path ending exactly at the makespan, and a loadable export.
func TestWithRecorderRoundTrip(t *testing.T) {
	rec := trace.NewRecorder()
	rec.SetLabel("facade round trip")
	sess, err := hbsp.New(testMachine(t, 8), hbsp.WithSeed(123), hbsp.WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.RunBSP(context.Background(), func(c *bsp.Ctx) error {
		c.Compute(1e-6 * float64(c.Pid()+1))
		v, err := c.AllReduce([]float64{float64(c.Pid())}, bsp.OpSum)
		if err != nil {
			return err
		}
		if v[0] != 28 { // 0+1+...+7
			return c.Abort("allreduce = %v", v)
		}
		return c.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Meta.SeedKnown || tr.Meta.Seed != 123 {
		t.Fatalf("trace seed = (%v, %d), want (true, 123) from WithSeed", tr.Meta.SeedKnown, tr.Meta.Seed)
	}
	if tr.Meta.Label != "facade round trip" {
		t.Fatalf("trace label = %q", tr.Meta.Label)
	}
	cp := tr.CriticalPath()
	if cp.End != res.MakeSpan {
		t.Fatalf("critical path end %v != makespan %v", cp.End, res.MakeSpan)
	}
	var buf bytes.Buffer
	if err := trace.WriteReport(&buf, tr, trace.ReportOptions{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("(== makespan)")) {
		t.Fatalf("report does not confirm the critical path:\n%s", buf.String())
	}
}

// TestRunProgramEngines pins Session.RunProgram: a ring exchange op-stream
// evaluated by the direct engine and replayed on the concurrent engine must
// produce bit-identical per-rank times, and operand mismatches surface as
// ErrOption.
func TestRunProgramEngines(t *testing.T) {
	const procs = 8
	m := testMachine(t, procs)
	pr := sim.NewProgram(procs)
	for r := 0; r < procs; r++ {
		b := pr.Rank(r)
		b.Compute(1e-6 * float64(1+r%3))
		right, left := (r+1)%procs, (r+procs-1)%procs
		rq := b.Irecv(left, 7)
		sq := b.Isend(right, 7, 64)
		b.Wait(rq)
		b.Wait(sq)
	}

	direct, err := hbsp.New(m, hbsp.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	resD, err := direct.RunProgram(context.Background(), pr)
	if err != nil {
		t.Fatal(err)
	}
	concurrent, err := hbsp.New(m, hbsp.WithSeed(3), hbsp.WithConcurrentEngine())
	if err != nil {
		t.Fatal(err)
	}
	resC, err := concurrent.RunProgram(context.Background(), pr)
	if err != nil {
		t.Fatal(err)
	}
	if len(resD.Times) != procs {
		t.Fatalf("got %d times, want %d", len(resD.Times), procs)
	}
	for r := range resD.Times {
		if resD.Times[r] != resC.Times[r] {
			t.Fatalf("rank %d: direct %v != concurrent %v", r, resD.Times[r], resC.Times[r])
		}
	}
	if resD.MakeSpan <= 0 {
		t.Fatalf("non-positive makespan %v", resD.MakeSpan)
	}

	if _, err := direct.RunProgram(context.Background(), nil); !errors.Is(err, hbsp.ErrOption) {
		t.Fatalf("nil program: got %v, want ErrOption", err)
	}
	if _, err := direct.RunProgram(context.Background(), sim.NewProgram(procs+1)); !errors.Is(err, hbsp.ErrOption) {
		t.Fatalf("rank mismatch: got %v, want ErrOption", err)
	}
}
