package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestMeanMedianBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 10}
	m, err := Mean(xs)
	if err != nil {
		t.Fatal(err)
	}
	if m != 4 {
		t.Fatalf("Mean = %v, want 4", m)
	}
	med, err := Median(xs)
	if err != nil {
		t.Fatal(err)
	}
	if med != 3 {
		t.Fatalf("Median = %v, want 3", med)
	}
	med2, _ := Median([]float64{1, 2, 3, 4})
	if med2 != 2.5 {
		t.Fatalf("even Median = %v, want 2.5", med2)
	}
}

func TestMedianDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Median(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestEmptyAndInsufficientErrors(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Fatalf("Mean(nil) err = %v", err)
	}
	if _, err := Median(nil); err != ErrEmpty {
		t.Fatalf("Median(nil) err = %v", err)
	}
	if _, err := Variance([]float64{1}); err != ErrInsufficient {
		t.Fatalf("Variance single err = %v", err)
	}
	if _, err := LinearFit([]float64{1}, []float64{1}); err != ErrInsufficient {
		t.Fatalf("LinearFit single err = %v", err)
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	v, err := Variance(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-4.571428571428571) > 1e-12 {
		t.Fatalf("Variance = %v", v)
	}
	sd, _ := StdDev(xs)
	if math.Abs(sd-math.Sqrt(v)) > 1e-12 {
		t.Fatalf("StdDev = %v", sd)
	}
}

func TestLinearFitExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x
	}
	r, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Gradient-2) > 1e-12 || math.Abs(r.Intercept-3) > 1e-12 {
		t.Fatalf("fit = %+v", r)
	}
	if math.Abs(r.R2-1) > 1e-12 {
		t.Fatalf("R2 = %v, want 1", r.R2)
	}
	if math.Abs(r.Predict(10)-23) > 1e-12 {
		t.Fatalf("Predict(10) = %v", r.Predict(10))
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, err := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("degenerate x should fail")
	}
}

// Property: a constant shift of the data shifts the mean by the same amount
// and leaves the standard deviation unchanged.
func TestMeanShiftProperty(t *testing.T) {
	f := func(raw [8]float64, shiftRaw float64) bool {
		shift := math.Mod(shiftRaw, 1000)
		if math.IsNaN(shift) {
			shift = 1
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			v = math.Mod(v, 1000)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs = append(xs, v)
		}
		shifted := make([]float64, len(xs))
		for i, v := range xs {
			shifted[i] = v + shift
		}
		m1, _ := Mean(xs)
		m2, _ := Mean(shifted)
		s1, _ := StdDev(xs)
		s2, _ := StdDev(shifted)
		return math.Abs((m2-m1)-shift) < 1e-6 && math.Abs(s1-s2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the median lies between the minimum and maximum.
func TestMedianBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		med, _ := Median(xs)
		return med >= slices.Min(xs) && med <= slices.Max(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
