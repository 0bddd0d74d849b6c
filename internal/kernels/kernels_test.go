package kernels

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCatalogue(t *testing.T) {
	all := append([]Kernel{DAXPY, Stencil5}, BLAS1()...)
	seen := map[string]bool{}
	for _, k := range all {
		if seen[k.Name] {
			t.Fatalf("duplicate kernel %q", k.Name)
		}
		seen[k.Name] = true
	}
	if len(BLAS1()) != 8 {
		t.Fatalf("BLAS1() has %d kernels, want 8", len(BLAS1()))
	}
}

func TestIntensityAndCounts(t *testing.T) {
	if got := DAXPY.Intensity(); math.Abs(got-2.0/24) > 1e-12 {
		t.Fatalf("DAXPY intensity %g", got)
	}
	if got := DAXPY.Flops(100); got != 200 {
		t.Fatalf("DAXPY flops %g", got)
	}
	if got := DAXPY.Bytes(10); got != 240 {
		t.Fatalf("DAXPY bytes %g", got)
	}
	if got := DAXPY.FootprintBytes(1024); got != 1024*16 {
		t.Fatalf("DAXPY footprint %g", got)
	}
	// Zero-traffic kernel has infinite intensity.
	zero := Kernel{Name: "z", FlopsPerElement: 1, BytesPerElement: 0}
	if !math.IsInf(zero.Intensity(), 1) {
		t.Fatal("zero-byte kernel should have infinite intensity")
	}
	if DAXPY.String() != "daxpy" {
		t.Fatal("String() wrong")
	}
}

func TestRunDAXPY(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	if err := RunDAXPY(2, x, y); err != nil {
		t.Fatal(err)
	}
	want := []float64{12, 24, 36}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
	if err := RunDAXPY(1, x, []float64{1}); err != ErrLength {
		t.Fatalf("length mismatch err = %v", err)
	}
}

func TestRunBLAS1(t *testing.T) {
	d, err := RunDot([]float64{1, 2, 3}, []float64{4, 5, 6})
	if err != nil || d != 32 {
		t.Fatalf("dot = %v, %v", d, err)
	}
	if _, err := RunDot([]float64{1}, []float64{1, 2}); err != ErrLength {
		t.Fatal("dot length mismatch not detected")
	}
}

func TestRunStencil5(t *testing.T) {
	rows, cols := 4, 4
	in := make([]float64, rows*cols)
	out := make([]float64, rows*cols)
	// Hot spot in the middle of a cold grid.
	in[1*cols+1] = 100
	if err := RunStencil5(in, out, rows, cols, 0.25); err != nil {
		t.Fatal(err)
	}
	// Centre loses heat, neighbours gain it.
	if out[1*cols+1] >= 100 {
		t.Fatalf("centre did not cool: %v", out[1*cols+1])
	}
	if out[1*cols+2] <= 0 {
		t.Fatalf("neighbour did not warm: %v", out[1*cols+2])
	}
	// Boundary untouched.
	if out[0] != in[0] {
		t.Fatal("boundary modified")
	}
	if err := RunStencil5(in, out[:3], rows, cols, 0.25); err != ErrLength {
		t.Fatal("length mismatch not detected")
	}
	if err := RunStencil5(nil, nil, 0, 4, 0.25); err == nil {
		t.Fatal("invalid grid not detected")
	}
}

// Property: a stencil sweep with c in (0, 0.25] conserves the total heat when
// the boundary is zero and the interior is non-negative (diffusion only moves
// heat into the one-cell boundary frame; with an all-interior hot region away
// from the boundary, the grid total is conserved).
func TestStencilConservesHeatProperty(t *testing.T) {
	f := func(seed uint8) bool {
		rows, cols := 6, 6
		in := make([]float64, rows*cols)
		// Place heat only in the 2x2 centre so one sweep cannot reach the boundary.
		in[2*cols+2] = float64(seed%100) + 1
		in[2*cols+3] = float64(seed%50) + 1
		in[3*cols+2] = 2
		in[3*cols+3] = 3
		out := make([]float64, rows*cols)
		if err := RunStencil5(in, out, rows, cols, 0.25); err != nil {
			return false
		}
		sum := func(g []float64) float64 {
			s := 0.0
			for _, v := range g {
				s += v
			}
			return s
		}
		return math.Abs(sum(in)-sum(out)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: DAXPY with a = 0 leaves y unchanged, and dot is symmetric.
func TestDAXPYAndDotProperties(t *testing.T) {
	f := func(raw [5]float64) bool {
		x := make([]float64, 5)
		y := make([]float64, 5)
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			v = math.Mod(v, 100)
			x[i] = v
			y[i] = math.Mod(v*2, 100)
		}
		orig := append([]float64(nil), y...)
		if err := RunDAXPY(0, x, y); err != nil {
			return false
		}
		for i := range y {
			if y[i] != orig[i] {
				return false
			}
		}
		d1, _ := RunDot(x, y)
		d2, _ := RunDot(y, x)
		return math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
