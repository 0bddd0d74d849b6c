package kernels

import (
	"math"
	"testing"
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

func TestRunBLAS1(t *testing.T) {
	d, err := RunDot([]float64{1, 2, 3}, []float64{4, 5, 6})
	if err != nil || d != 32 {
		t.Fatalf("dot = %v, %v", d, err)
	}
	if r, _ := RunDot([]float64{4, 5, 6}, []float64{1, 2, 3}); r != d {
		t.Fatalf("dot is not symmetric: %v vs %v", r, d)
	}
	if _, err := RunDot([]float64{1}, []float64{1, 2}); err != ErrLength {
		t.Fatal("dot length mismatch not detected")
	}
}
