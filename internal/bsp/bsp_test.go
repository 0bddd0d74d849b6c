package bsp

import (
	"errors"
	"math"
	"strings"
	"testing"

	"hbsp/internal/kernels"
	"hbsp/internal/platform"
)

func testMachine(t *testing.T, ranks int) *platform.Machine {
	t.Helper()
	prof := platform.Xeon8x2x4()
	prof.NoiseRel = 0
	m, err := prof.Machine(ranks)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPidNprocsTime(t *testing.T) {
	m := testMachine(t, 4)
	seen := make([]bool, 4)
	_, err := Run(m, func(ctx *Ctx) error {
		if ctx.NProcs() != 4 {
			t.Errorf("NProcs = %d", ctx.NProcs())
		}
		seen[ctx.Pid()] = true
		if ctx.Superstep() != 0 {
			t.Errorf("initial superstep = %d", ctx.Superstep())
		}
		ctx.Compute(1e-3)
		if ctx.Time() < 1e-3 {
			t.Errorf("Time = %g", ctx.Time())
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

func TestPutBecomesVisibleAfterSync(t *testing.T) {
	m := testMachine(t, 4)
	_, err := Run(m, func(ctx *Ctx) error {
		p := ctx.NProcs()
		area := make([]float64, p)
		ctx.PushReg("area", area)
		if err := ctx.Sync(); err != nil {
			return err
		}
		// Everyone writes its rank into slot Pid() of the right neighbour.
		right := (ctx.Pid() + 1) % p
		if err := ctx.Put(right, "area", ctx.Pid(), []float64{float64(ctx.Pid())}); err != nil {
			return err
		}
		// Not visible before the synchronization.
		left := (ctx.Pid() - 1 + p) % p
		if area[left] != 0 {
			t.Errorf("process %d: put visible before sync", ctx.Pid())
		}
		if err := ctx.Sync(); err != nil {
			return err
		}
		if area[left] != float64(left) {
			t.Errorf("process %d: area[%d] = %v, want %d", ctx.Pid(), left, area[left], left)
		}
		if ctx.Superstep() != 2 {
			t.Errorf("superstep = %d, want 2", ctx.Superstep())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGetReadsPrePutState(t *testing.T) {
	m := testMachine(t, 2)
	_, err := Run(m, func(ctx *Ctx) error {
		area := []float64{float64(10 * (ctx.Pid() + 1))} // 10 on rank 0, 20 on rank 1
		ctx.PushReg("x", area)
		if err := ctx.Sync(); err != nil {
			return err
		}
		other := 1 - ctx.Pid()
		got := make([]float64, 1)
		if err := ctx.Get(other, "x", 0, 1, got); err != nil {
			return err
		}
		// Simultaneously overwrite the partner's area; BSPlib semantics say
		// the get must observe the value before the put is applied.
		if err := ctx.Put(other, "x", 0, []float64{-1}); err != nil {
			return err
		}
		if err := ctx.Sync(); err != nil {
			return err
		}
		want := float64(10 * (other + 1))
		if got[0] != want {
			t.Errorf("process %d: get = %v, want %v", ctx.Pid(), got[0], want)
		}
		if area[0] != -1 {
			t.Errorf("process %d: put was not applied, area = %v", ctx.Pid(), area[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBSMPSendQsizeMove(t *testing.T) {
	m := testMachine(t, 3)
	_, err := Run(m, func(ctx *Ctx) error {
		p := ctx.NProcs()
		// Everyone sends one tagged message to every other process.
		for d := 0; d < p; d++ {
			if d == ctx.Pid() {
				continue
			}
			if err := ctx.Send(d, ctx.Pid(), []float64{float64(ctx.Pid()), 42}); err != nil {
				return err
			}
		}
		if ctx.QueueLen() != 0 {
			t.Errorf("queue should be empty before sync")
		}
		if err := ctx.Sync(); err != nil {
			return err
		}
		if ctx.QueueLen() != p-1 {
			t.Errorf("process %d: QueueLen = %d, want %d", ctx.Pid(), ctx.QueueLen(), p-1)
		}
		seen := map[int]bool{}
		for ctx.QueueLen() > 0 {
			tag, err := ctx.PeekTag()
			if err != nil {
				return err
			}
			data, err := ctx.Move()
			if err != nil {
				return err
			}
			if len(data) != 2 || data[1] != 42 || int(data[0]) != tag {
				t.Errorf("process %d: bad message %v tag %d", ctx.Pid(), data, tag)
			}
			seen[tag] = true
		}
		if len(seen) != p-1 {
			t.Errorf("process %d: saw %d distinct senders", ctx.Pid(), len(seen))
		}
		if _, err := ctx.Move(); err == nil {
			t.Error("Move on empty queue should fail")
		}
		if _, err := ctx.PeekTag(); err == nil {
			t.Error("PeekTag on empty queue should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnregisteredPutFails(t *testing.T) {
	m := testMachine(t, 2)
	_, err := Run(m, func(ctx *Ctx) error {
		if ctx.Pid() == 0 {
			if err := ctx.Put(1, "nope", 0, []float64{1}); err != nil {
				return err
			}
		}
		return ctx.Sync()
	})
	if err == nil || !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("expected ErrNotRegistered, got %v", err)
	}
}

func TestOutOfRangePutFails(t *testing.T) {
	m := testMachine(t, 2)
	_, err := Run(m, func(ctx *Ctx) error {
		area := make([]float64, 2)
		ctx.PushReg("a", area)
		if err := ctx.Sync(); err != nil {
			return err
		}
		if ctx.Pid() == 0 {
			if err := ctx.Put(1, "a", 1, []float64{1, 2, 3}); err != nil {
				return err
			}
		}
		return ctx.Sync()
	})
	if err == nil || !strings.Contains(err.Error(), "exceeds area") {
		t.Fatalf("expected out-of-range error, got %v", err)
	}
}

// TestOneSidedRangeErrors: a negative count and offsets whose end overflows
// an int are refused with the range error, not a slice panic.
func TestOneSidedRangeErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		op   func(ctx *Ctx) error
	}{
		{"get of a negative count", func(ctx *Ctx) error {
			return ctx.Get(1, "a", 0, -1, make([]float64, 2))
		}},
		{"get at the largest offset", func(ctx *Ctx) error {
			return ctx.Get(1, "a", math.MaxInt, 4, make([]float64, 4))
		}},
		{"put at the largest offset", func(ctx *Ctx) error {
			return ctx.Put(1, "a", math.MaxInt, []float64{1, 2, 3, 4})
		}},
	} {
		_, err := Run(testMachine(t, 2), func(ctx *Ctx) error {
			ctx.PushReg("a", make([]float64, 4))
			if err := ctx.Sync(); err != nil {
				return err
			}
			if ctx.Pid() == 0 {
				if err := c.op(ctx); err != nil {
					return err
				}
			}
			return ctx.Sync()
		})
		if !errors.Is(err, errRange) {
			t.Errorf("%s: err = %v, want the range error", c.name, err)
		}
	}
}

func TestArgumentValidation(t *testing.T) {
	m := testMachine(t, 2)
	_, err := Run(m, func(ctx *Ctx) error {
		if err := ctx.Put(7, "a", 0, []float64{1}); err == nil {
			t.Error("put to invalid rank should fail")
		}
		if err := ctx.Get(-1, "a", 0, 1, make([]float64, 1)); err == nil {
			t.Error("get from invalid rank should fail")
		}
		if err := ctx.Get(1, "a", 0, 5, make([]float64, 2)); err == nil {
			t.Error("get into short destination should fail")
		}
		if err := ctx.Send(9, 0, nil); err == nil {
			t.Error("send to invalid rank should fail")
		}
		// Zero-length operations are silently ignored.
		if err := ctx.Put(1, "a", 0, nil); err != nil {
			t.Error("empty put should be a no-op")
		}
		if err := ctx.Get(1, "a", 0, 0, nil); err != nil {
			t.Error("empty get should be a no-op")
		}
		return ctx.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPopRegTakesEffectAtSync(t *testing.T) {
	m := testMachine(t, 2)
	_, err := Run(m, func(ctx *Ctx) error {
		area := make([]float64, 1)
		ctx.PushReg("a", area)
		if ctx.Registered("a") {
			t.Error("registration should not be active before sync")
		}
		if err := ctx.Sync(); err != nil {
			return err
		}
		if !ctx.Registered("a") {
			t.Error("registration should be active after sync")
		}
		ctx.PopReg("a")
		if err := ctx.Sync(); err != nil {
			return err
		}
		if ctx.Registered("a") {
			t.Error("registration should be removed after sync")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAbortPropagates(t *testing.T) {
	m := testMachine(t, 2)
	_, err := Run(m, func(ctx *Ctx) error {
		if ctx.Pid() == 1 {
			return ctx.Abort("giving up after %d supersteps", ctx.Superstep())
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "abort on process 1") {
		t.Fatalf("expected abort error, got %v", err)
	}
}

func TestComputeKernelAdvancesClock(t *testing.T) {
	m := testMachine(t, 1)
	_, err := Run(m, func(ctx *Ctx) error {
		before := ctx.Time()
		ctx.ComputeKernel(kernels.DAXPY, 1024, 10)
		if ctx.Time() <= before {
			t.Error("ComputeKernel did not advance the clock")
		}
		mid := ctx.Time()
		ctx.ComputeKernel(kernels.DAXPY, 0, 10) // no-op
		ctx.ComputeKernel(kernels.DAXPY, 10, 0) // no-op
		if ctx.Time() != mid {
			t.Error("zero-sized kernel application should not advance the clock")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEagerPutsOverlapWithComputation(t *testing.T) {
	// Two runs of the same exchange: one where the producer computes after
	// committing its puts (overlap possible), one where the communication is
	// committed only after the computation (no overlap window). The thesis'
	// processing model predicts the first is no slower; with the large
	// payload chosen here it must be strictly faster for the consumer side.
	const n = 1 << 17 // 1 MiB of doubles
	run := func(early bool) float64 {
		m := testMachine(t, 2)
		res, err := Run(m, func(ctx *Ctx) error {
			area := make([]float64, n)
			ctx.PushReg("buf", area)
			if err := ctx.Sync(); err != nil {
				return err
			}
			data := make([]float64, n)
			if ctx.Pid() == 0 {
				if early {
					if err := ctx.Put(1, "buf", 0, data); err != nil {
						return err
					}
					ctx.Compute(20e-3)
				} else {
					ctx.Compute(20e-3)
					if err := ctx.Put(1, "buf", 0, data); err != nil {
						return err
					}
				}
			} else {
				ctx.Compute(20e-3)
			}
			return ctx.Sync()
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MakeSpan
	}
	earlyTime := run(true)
	lateTime := run(false)
	if earlyTime >= lateTime {
		t.Fatalf("early communication (%g) should beat postponed communication (%g)", earlyTime, lateTime)
	}
}

func TestSyncCostScalesWithDistance(t *testing.T) {
	// A sync across 8 nodes should cost more than a sync within one node.
	prof := platform.Xeon8x2x4()
	prof.NoiseRel = 0
	cross, err := prof.Machine(8) // round-robin: one rank per node
	if err != nil {
		t.Fatal(err)
	}
	plLocal, err := prof.PlaceWith(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	local := prof.MachineFor(plLocal)
	syncTime := func(m *platform.Machine) float64 {
		res, err := Run(m, func(ctx *Ctx) error { return ctx.Sync() })
		if err != nil {
			t.Fatal(err)
		}
		return res.MakeSpan
	}
	if lt, ct := syncTime(local), syncTime(cross); lt >= ct {
		t.Fatalf("intra-node sync (%g) should be cheaper than cross-node sync (%g)", lt, ct)
	}
}

func TestRunNilMachine(t *testing.T) {
	if _, err := Run(nil, func(ctx *Ctx) error { return nil }); err == nil {
		t.Fatal("nil machine should fail")
	}
}

func TestInnerProductProgram(t *testing.T) {
	// bspinprod: a distributed inner product in two computation supersteps
	// and one communication superstep, validated against the serial result.
	const n = 1 << 12
	const ranks = 8
	m := testMachine(t, ranks)
	_, err := Run(m, func(ctx *Ctx) error {
		p := ctx.NProcs()
		local := n / p
		x := make([]float64, local)
		y := make([]float64, local)
		for i := range x {
			gi := ctx.Pid()*local + i
			x[i] = float64(gi % 7)
			y[i] = float64(gi % 5)
		}
		partials := make([]float64, p)
		ctx.PushReg("partials", partials)
		if err := ctx.Sync(); err != nil {
			return err
		}
		sum, err := kernels.RunDot(x, y)
		if err != nil {
			return err
		}
		ctx.ComputeKernel(kernels.Dot, local, 1)
		for d := 0; d < p; d++ {
			if err := ctx.Put(d, "partials", ctx.Pid(), []float64{sum}); err != nil {
				return err
			}
		}
		if err := ctx.Sync(); err != nil {
			return err
		}
		total := 0.0
		for _, v := range partials {
			total += v
		}
		// Serial reference.
		want := 0.0
		for gi := 0; gi < n; gi++ {
			want += float64(gi%7) * float64(gi%5)
		}
		if math.Abs(total-want) > 1e-9 {
			t.Errorf("process %d: inner product = %g, want %g", ctx.Pid(), total, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
