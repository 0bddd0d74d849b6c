package sched_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"hbsp/internal/barrier"
	"hbsp/internal/loggp"
	"hbsp/internal/mpi"
	"hbsp/internal/platform"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
)

// perDraw is a platform machine whose noise is one call per draw: the field
// NoiseStream hides the promoted method of that name, so the kernel cannot
// resolve the machine and calls Machine.Noise(rank, seq) for every draw. It is
// the reference the resolved path is held to.
type perDraw struct {
	*platform.Machine
	NoiseStream struct{}
}

// noiseKinds returns the ways a machine of p ranks under seed draws its
// noise: through a Draws, through a TurnDraws (each fresh), computing every
// draw, and not at all.
func noiseKinds(t *testing.T, p int, seed int64) map[string]*platform.Machine {
	t.Helper()
	noisy, err := platform.Xeon8x2x4().Machine(p)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := platform.FlatClusterMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	noisy = noisy.WithRunSeed(seed)
	return map[string]*platform.Machine{
		"draws":      noisy.WithDraws(platform.NewDraws(seed, p)),
		"turn":       noisy.WithTurnDraws(platform.NewTurnDraws(seed, p, platform.MaxDraws)),
		"no memo":    noisy,
		"noise-free": flat,
	}
}

// sameRun fails unless got and want agree bit for bit on every clock and on
// the traffic.
func sameRun(t *testing.T, tag string, got, want *simnet.Result) {
	t.Helper()
	for r := range want.Times {
		if math.Float64bits(got.Times[r]) != math.Float64bits(want.Times[r]) {
			t.Fatalf("%s: rank %d at %v, per-draw reference %v", tag, r, got.Times[r], want.Times[r])
		}
	}
	if got.Messages != want.Messages || got.Bytes != want.Bytes {
		t.Errorf("%s: traffic %d/%d, reference %d/%d", tag, got.Messages, got.Bytes, want.Messages, want.Bytes)
	}
}

// TestSharedNoiseWindow holds the resolved noise path — a rank reading stored
// draws through a window in its state — to Machine.Noise(rank, seq), bit for
// bit, for a Draws, a TurnDraws, no memo and a noise-free profile: draw by
// draw across window, block and row boundaries; through a state copied at a
// gate in the middle of a window; for two overlapping runs reading one Draws;
// and on pooled and kept evaluators reused on a machine of another seed, so
// that no window outlives the run it was handed to.
func TestSharedNoiseWindow(t *testing.T) {
	const p = 24
	dissemination, err := sched.Dissemination(p, func(d int) int { return 64 * d })
	if err != nil {
		t.Fatal(err)
	}
	reference := func(tag string, m *platform.Machine, run func(m simnet.Machine) (*simnet.Result, error)) *simnet.Result {
		t.Helper()
		res, err := run(perDraw{Machine: m})
		if err != nil {
			t.Fatalf("%s: reference: %v", tag, err)
		}
		return res
	}
	schedule := func(m simnet.Machine) (*simnet.Result, error) {
		return sched.RunSchedule(context.Background(), m, dissemination, 3, simnet.DefaultOptions())
	}

	t.Run("draw by draw", func(t *testing.T) {
		const rowEnd = 64 * 512 // a Draws row's capacity
		for name, m := range noiseKinds(t, p, 5) {
			env := loggp.Env{Noise: loggp.Resolve(m)}
			for _, start := range []uint64{0, loggp.WindowLen - 3, 512 - 5, rowEnd - 70} {
				for _, rank := range []int{0, 7, p - 1} {
					st := loggp.State{NoiseSeq: start}
					for seq := start; seq < start+200; seq++ {
						st.Now = 0
						st.Compute(&env, rank, 1) // the clock moves by the factor drawn
						if want := m.WithDraws(nil).Noise(rank, seq); math.Float64bits(st.Now) != math.Float64bits(want) {
							t.Fatalf("%s: rank %d draw %d = %v, Machine.Noise %v", name, rank, seq, st.Now, want)
						}
					}
				}
			}
		}
	})

	t.Run("gate", func(t *testing.T) {
		// Rank r draws r+3 times on its own goroutine, so the gate copies its
		// state in the middle of its first window; the ranks draw on after it.
		body := func(proc *simnet.Proc) error {
			for k := 0; k < proc.Rank()+3; k++ {
				proc.Compute(1e-6)
			}
			barrier.Execute(mpi.CommOn(proc), dissemination)
			for k := 0; k < 70; k++ {
				proc.Compute(1e-6)
			}
			return nil
		}
		gated := func(m simnet.Machine) (*simnet.Result, error) { return simnet.Run(m, body) }
		for name, m := range noiseKinds(t, p, 6) {
			res, err := gated(m)
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, "gate, "+name, res, reference(name, m, gated))
		}
	})

	t.Run("overlapping runs", func(t *testing.T) {
		base, err := platform.Xeon8x2x4().Machine(p)
		if err != nil {
			t.Fatal(err)
		}
		small, err := platform.Xeon8x2x4().Machine(16)
		if err != nil {
			t.Fatal(err)
		}
		smallSched, err := sched.Dissemination(16, func(d int) int { return 64 * d })
		if err != nil {
			t.Fatal(err)
		}
		d := platform.NewDraws(base.RunSeed(), p)
		runs := []struct {
			m *platform.Machine
			s sched.Schedule
		}{{base.WithDraws(d), dissemination}, {small.WithDraws(d), smallSched}, {base.WithDraws(d), dissemination}}
		got := make([]*simnet.Result, len(runs))
		var wg sync.WaitGroup
		for i, r := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], _ = sched.RunSchedule(context.Background(), r.m, r.s, 40, simnet.DefaultOptions())
			}()
		}
		wg.Wait()
		for i, r := range runs {
			if got[i] == nil {
				t.Fatalf("run %d failed", i)
			}
			want := reference("overlapping", r.m, func(m simnet.Machine) (*simnet.Result, error) {
				return sched.RunSchedule(context.Background(), m, r.s, 40, simnet.DefaultOptions())
			})
			sameRun(t, "overlapping", got[i], want)
		}
		if s := d.Stats(); s.Stored == 0 || s.Hits == 0 {
			t.Errorf("shared memo %+v: want draws stored and hit", s)
		}
	})

	t.Run("reused evaluators", func(t *testing.T) {
		// Pooled: each RunSchedule takes an evaluator from the pool the run
		// before returned, now on a machine of another seed.
		for seed := int64(1); seed <= 3; seed++ {
			for name, m := range noiseKinds(t, p, seed) {
				res, err := schedule(m)
				if err != nil {
					t.Fatal(err)
				}
				sameRun(t, "pooled, "+name, res, reference(name, m, schedule))
			}
		}
		// Kept: one sweep arena across seeds, which it keeps (the machines are
		// of one family), and across the collapsed noise-free points, which
		// walk the class states.
		first := noiseKinds(t, p, 1)["draws"]
		sw, err := sched.NewSweepEvaluator(first, sched.SweepOptions{AckSends: true, ComputeEmpty: true})
		if err != nil {
			t.Fatal(err)
		}
		defer sw.Release()
		for _, name := range []string{"draws", "turn", "no memo", "draws", "noise-free", "draws"} {
			for seed := int64(1); seed <= 3; seed++ {
				m := noiseKinds(t, p, seed)[name]
				res, err := sw.Run(context.Background(), m, dissemination, 3)
				if err != nil {
					t.Fatal(err)
				}
				sameRun(t, "kept, "+name, res, reference(name, m, schedule))
			}
		}
	})
}
