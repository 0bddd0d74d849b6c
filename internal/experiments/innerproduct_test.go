package experiments

import (
	"math"
	"testing"

	"hbsp/internal/bsp"
	"hbsp/internal/kernels"
	"hbsp/internal/platform"
)

// innerProductProgram is bspinprod as a program on a Ctx per process, each
// partial sum a put into a registered area: the oracle measureInnerProduct's
// static description is held to.
func innerProductProgram(m *platform.Machine, n int) (float64, error) {
	res, err := bsp.Run(m, func(ctx *bsp.Ctx) error {
		p := ctx.NProcs()
		partials := make([]float64, p)
		ctx.PushReg("partials", partials)
		if err := ctx.Sync(); err != nil {
			return err
		}
		ctx.ComputeKernel(kernels.Dot, n/p, 1)
		for d := 0; d < p; d++ {
			if err := ctx.Put(d, "partials", ctx.Pid(), []float64{1}); err != nil {
				return err
			}
		}
		if err := ctx.Sync(); err != nil {
			return err
		}
		ctx.ComputeKernel(kernels.Asum, p, 1)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return res.MakeSpan, nil
}

// TestInnerProductMatchesProgram holds Fig. 3.2's makespans, priced from the
// static description with no process goroutine, to the goroutine program bit
// for bit: one process (its put to itself alone), a node, an odd count and
// the whole Xeon machine, at the figure's problem size and at one that leaves
// a remainder.
func TestInnerProductMatchesProgram(t *testing.T) {
	prof := platform.Xeon8x2x4()
	for _, p := range []int{1, 8, 13, 64} {
		m, err := prof.Machine(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{innerProductN, 1000} {
			got, err := measureInnerProduct(m, n)
			if err != nil {
				t.Fatal(err)
			}
			want, err := innerProductProgram(m, n)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("P=%d n=%d: static makespan %v, program %v", p, n, got, want)
			}
		}
	}
}
