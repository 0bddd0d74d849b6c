package mpi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"hbsp/internal/platform"
	"hbsp/internal/simnet"
	"hbsp/internal/topology"
)

func testMachine(t *testing.T, ranks int) simnet.Machine {
	t.Helper()
	prof := platform.Xeon8x2x4()
	prof.NoiseRel = 0 // exact timing for unit tests
	m, err := prof.Machine(ranks)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRankSizeWtime(t *testing.T) {
	m := testMachine(t, 4)
	seen := make([]bool, 4)
	_, err := Run(m, func(c *Comm) error {
		if c.Size() != 4 {
			t.Errorf("Size = %d", c.Size())
		}
		seen[c.Rank()] = true
		if c.Wtime() != 0 {
			t.Errorf("initial Wtime = %g", c.Wtime())
		}
		c.Compute(1e-3)
		if c.Wtime() <= 0 {
			t.Error("Wtime did not advance")
		}
		if c.Proc() == nil {
			t.Error("Proc() returned nil")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, ok := range seen {
		if !ok {
			t.Errorf("rank %d did not run", r)
		}
	}
}

func TestSendRecvAndNonBlocking(t *testing.T) {
	m := testMachine(t, 2)
	_, err := Run(m, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			c.Send(1, 1, 8, 3.14)
			req := c.Isend(1, 2, 8, 42)
			c.Wait(req)
		case 1:
			if got := c.Recv(0, 1); got != 3.14 {
				t.Errorf("Recv = %v", got)
			}
			req := c.Irecv(0, 2)
			if got := c.Wait(req); got != 42 {
				t.Errorf("Irecv = %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierAlignsRanks(t *testing.T) {
	m := testMachine(t, 8)
	res, err := Run(m, func(c *Comm) error {
		// Rank 3 is late; everyone else must wait for it.
		if c.Rank() == 3 {
			c.Compute(5e-3)
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, tm := range res.Times {
		if tm < 5e-3 {
			t.Errorf("rank %d finished at %g, before the straggler", r, tm)
		}
	}
}

func TestAllreduce(t *testing.T) {
	for _, ranks := range []int{2, 3, 7, 8} {
		m := testMachine(t, ranks)
		_, err := Run(m, func(c *Comm) error {
			sum := c.Allreduce(float64(c.Rank()+1), OpSum)
			want := float64(ranks*(ranks+1)) / 2
			if math.Abs(sum-want) > 1e-9 {
				t.Errorf("P=%d: sum = %g, want %g", ranks, sum, want)
			}
			max := c.Allreduce(float64(c.Rank()), OpMax)
			if max != float64(ranks-1) {
				t.Errorf("P=%d: max = %g", ranks, max)
			}
			min := c.Allreduce(float64(c.Rank()), OpMin)
			if min != 0 {
				t.Errorf("P=%d: min = %g", ranks, min)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllgather(t *testing.T) {
	const ranks = 5
	m := testMachine(t, ranks)
	_, err := Run(m, func(c *Comm) error {
		all := c.Allgather(c.Rank() * 10)
		if len(all) != ranks {
			t.Errorf("Allgather length %d", len(all))
		}
		for r := 0; r < ranks; r++ {
			if all[r] != r*10 {
				t.Errorf("all[%d] = %v", r, all[r])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	for _, ranks := range []int{1, 2, 5, 8} {
		for _, root := range []int{0, ranks - 1} {
			m := testMachine(t, ranks)
			_, err := Run(m, func(c *Comm) error {
				val := any(nil)
				if c.Rank() == root {
					val = "payload"
				}
				got := c.Bcast(val, root)
				if got != "payload" {
					t.Errorf("P=%d root=%d rank=%d: Bcast = %v", ranks, root, c.Rank(), got)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCollectiveCostGrowsWithDistance(t *testing.T) {
	// A barrier across nodes must cost more than within a node.
	prof := platform.Xeon8x2x4()
	prof.NoiseRel = 0
	small, err := prof.Machine(8) // round-robin: 8 ranks on 8 different nodes
	if err != nil {
		t.Fatal(err)
	}
	pl, err := prof.PlaceWith(8, topology.Block)
	if err != nil {
		t.Fatal(err)
	}
	local := prof.MachineFor(pl)

	run := func(m simnet.Machine) float64 {
		res, err := Run(m, func(c *Comm) error {
			c.Barrier()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MakeSpan
	}
	remote := run(small)
	intra := run(local)
	if intra >= remote {
		t.Fatalf("intra-node barrier (%g) should be cheaper than cross-node (%g)", intra, remote)
	}
}

// TestBcastRefusesInvalidRoot runs Bcast from a root outside the
// communicator on both engines: every rank refuses it before sending
// anything, so the run fails at once with ErrInvalidRoot — within the 2 s
// deadline, and for root P too, which wraps around to a valid rank.
func TestBcastRefusesInvalidRoot(t *testing.T) {
	const procs = 4
	m, err := platform.FlatClusterMachine(procs)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []simnet.Engine{simnet.EngineAuto, simnet.EngineConcurrent} {
		for _, root := range []int{-1, procs, procs + 1} {
			o := simnet.DefaultOptions()
			o.Engine, o.Deadline = engine, 2*time.Second
			res, err := RunContext(context.Background(), m, func(c *Comm) error {
				c.Bcast(c.Rank(), root)
				return nil
			}, o)
			if res != nil || !errors.Is(err, ErrInvalidRoot) {
				t.Errorf("engine %v root %d: Bcast = (%v, %v), want ErrInvalidRoot", engine, root, res, err)
			}
		}
	}
}

// TestBuiltinsReuseOneSchedule checks that the run memo hands the built-ins
// one schedule value per shape: after 1,000 Barriers every rank still gets
// the value it got before the first.
func TestBuiltinsReuseOneSchedule(t *testing.T) {
	_, err := Run(testMachine(t, 8), func(c *Comm) error {
		first := c.generated(dissemination, 0)
		for range 1000 {
			c.Barrier()
		}
		if c.generated(dissemination, 0) != first {
			return fmt.Errorf("rank %d: the barrier schedule was rebuilt", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
