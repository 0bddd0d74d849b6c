package bsp

import (
	"fmt"
	"math"
	"testing"

	"hbsp/internal/platform"
)

func collectiveMachine(t *testing.T, procs int) Machine {
	t.Helper()
	m, err := platform.Xeon8x2x4().Machine(procs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCollectivesComputeCorrectValues checks every user collective for
// correct data movement on power-of-two and non-power-of-two process counts
// (the circulant schedules behave differently in the two cases).
func TestCollectivesComputeCorrectValues(t *testing.T) {
	for _, procs := range []int{1, 5, 8} {
		m := collectiveMachine(t, procs)
		_, err := Run(m, func(c *Ctx) error {
			p := c.NProcs()
			me := float64(c.Pid())

			// Broadcast: root 1 (root 0 for p == 1) distributes its vector.
			root := 1 % p
			buf := []float64{-1, -1}
			if c.Pid() == root {
				buf = []float64{10, 20}
			}
			got, err := c.Broadcast(root, buf)
			if err != nil {
				return err
			}
			if got[0] != 10 || got[1] != 20 {
				t.Errorf("p=%d pid=%d: Broadcast = %v, want [10 20]", p, c.Pid(), got)
			}

			// Reduce: elementwise sum lands on the root only.
			red, err := c.Reduce(root, []float64{me, 1}, OpSum)
			if err != nil {
				return err
			}
			wantSum := float64(p*(p-1)) / 2
			if c.Pid() == root {
				if red[0] != wantSum || red[1] != float64(p) {
					t.Errorf("p=%d: Reduce = %v, want [%g %g]", p, red, wantSum, float64(p))
				}
			} else if red != nil {
				t.Errorf("p=%d pid=%d: Reduce on non-root = %v, want nil", p, c.Pid(), red)
			}

			// AllReduce: max of ranks everywhere.
			ar, err := c.AllReduce([]float64{me}, OpMax)
			if err != nil {
				return err
			}
			if ar[0] != float64(p-1) {
				t.Errorf("p=%d pid=%d: AllReduce = %v, want %d", p, c.Pid(), ar, p-1)
			}

			// AllGather: block r is [r, r^2] for every rank.
			ag, err := c.AllGather([]float64{me, me * me})
			if err != nil {
				return err
			}
			for r, block := range ag {
				fr := float64(r)
				if len(block) != 2 || block[0] != fr || block[1] != fr*fr {
					t.Errorf("p=%d pid=%d: AllGather[%d] = %v", p, c.Pid(), r, block)
				}
			}

			// TotalExchange: block for rank j is [100*me + j].
			blocks := make([][]float64, p)
			for j := range blocks {
				blocks[j] = []float64{100*me + float64(j)}
			}
			te, err := c.TotalExchange(blocks)
			if err != nil {
				return err
			}
			for src, block := range te {
				want := 100*float64(src) + me
				if len(block) != 1 || block[0] != want {
					t.Errorf("p=%d pid=%d: TotalExchange[%d] = %v, want [%g]", p, c.Pid(), src, block, want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", procs, err)
		}
	}
}

// TestCollectivesAdvanceClocks checks that a collective costs virtual time
// consistent with its schedule (a non-trivial makespan, monotone clocks).
func TestCollectivesAdvanceClocks(t *testing.T) {
	m := collectiveMachine(t, 8)
	res, err := Run(m, func(c *Ctx) error {
		before := c.Time()
		if _, err := c.AllReduce([]float64{1}, OpSum); err != nil {
			return err
		}
		if c.Time() <= before {
			t.Errorf("pid %d: AllReduce did not advance the clock", c.Pid())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MakeSpan <= 0 || res.Messages == 0 {
		t.Fatalf("collective run recorded no traffic: %+v", res)
	}
}

// TestCollectiveValidation exercises the error paths.
func TestCollectiveValidation(t *testing.T) {
	m := collectiveMachine(t, 4)
	_, err := Run(m, func(c *Ctx) error {
		if _, err := c.Broadcast(-1, []float64{1}); err == nil {
			t.Error("Broadcast with invalid root should fail")
		}
		if _, err := c.Reduce(99, []float64{1}, OpSum); err == nil {
			t.Error("Reduce with invalid root should fail")
		}
		if _, err := c.TotalExchange(make([][]float64, 2)); err == nil {
			t.Error("TotalExchange with wrong block count should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSharedRunMemoAcrossConcurrentRuns runs four programs at once, each
// making 200 AllReduce calls of lengths no other call uses (run k uses
// lengths ≡ k mod 4), so every call asks its run's memo for a schedule it
// has not built yet and the memo turns over every 64 calls. The gate leader
// of a flood checks that the ranks agree on the schedule by identity, so
// nothing may change which value two ranks of one call are handed (a cache
// shared by the runs and reset under them failed this with "ranks disagree on
// the flooded schedule").
func TestSharedRunMemoAcrossConcurrentRuns(t *testing.T) {
	const procs, runs, calls = 16, 4, 200
	m := collectiveMachine(t, procs)
	errs := make(chan error, runs)
	for run := 0; run < runs; run++ {
		go func() {
			_, err := Run(m, func(c *Ctx) error {
				for i := 0; i < calls; i++ {
					v := make([]float64, 1+run+runs*i)
					for k := range v {
						v[k] = float64(c.Pid())
					}
					sum, err := c.AllReduce(v, OpSum)
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

// TestCollectiveInputsMayBeReusedAfterReturn reuses every input buffer
// MPI-style immediately after the collective returns, while slower ranks may
// still be combining. The collectives hand private copies to the flooding
// executor, so this must be race-clean (the race detector guards it in CI).
func TestCollectiveInputsMayBeReusedAfterReturn(t *testing.T) {
	const procs, iters = 16, 4
	m := collectiveMachine(t, procs)
	_, err := Run(m, func(c *Ctx) error {
		me := float64(c.Pid())
		v := []float64{me}
		blocks := make([][]float64, procs)
		for j := range blocks {
			blocks[j] = []float64{me}
		}
		for i := 0; i < iters; i++ {
			sum, err := c.AllReduce(v, OpSum)
			if err != nil {
				return err
			}
			v[0] = sum[0] // mutate the input right after the call returns
			if _, err := c.Broadcast(0, v); err != nil {
				return err
			}
			v[0] = me
			if _, err := c.TotalExchange(blocks); err != nil {
				return err
			}
			blocks[0][0] = float64(i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllReduceMatchesSequentialCombination pins the deterministic rank-order
// combination: the result equals a sequential fold, bit for bit, on every
// process.
func TestAllReduceMatchesSequentialCombination(t *testing.T) {
	const procs = 6
	vals := make([]float64, procs)
	for i := range vals {
		vals[i] = math.Sqrt(float64(i + 2)) // non-associative-friendly values
	}
	want := vals[0]
	for _, v := range vals[1:] {
		want += v
	}
	m := collectiveMachine(t, procs)
	_, err := Run(m, func(c *Ctx) error {
		got, err := c.AllReduce([]float64{vals[c.Pid()]}, OpSum)
		if err != nil {
			return err
		}
		if got[0] != want {
			t.Errorf("pid %d: AllReduce = %.17g, want %.17g", c.Pid(), got[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
