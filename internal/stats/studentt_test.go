package stats

import (
	"math"
	"testing"
)

func TestTCDFSymmetry(t *testing.T) {
	if got := TCDF(0, 10); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("TCDF(0) = %v, want 0.5", got)
	}
	p := TCDF(1.5, 7)
	q := TCDF(-1.5, 7)
	if math.Abs(p+q-1) > 1e-6 {
		t.Fatalf("symmetry violated: %v + %v != 1", p, q)
	}
	if p <= 0.5 || p >= 1 {
		t.Fatalf("TCDF(1.5, 7) = %v out of (0.5, 1)", p)
	}
}

func TestTCDFMonotone(t *testing.T) {
	prev := 0.0
	for _, x := range []float64{-3, -1, 0, 0.5, 1, 2, 4} {
		p := TCDF(x, 5)
		if p < prev {
			t.Fatalf("TCDF not monotone at %v: %v < %v", x, p, prev)
		}
		prev = p
	}
}

func TestTCriticalKnownValues(t *testing.T) {
	// Textbook two-sided 95 % critical values.
	cases := []struct {
		nu   float64
		want float64
	}{
		{1, 12.706},
		{5, 2.571},
		{10, 2.228},
		{29, 2.045},
		{100, 1.984},
	}
	for _, c := range cases {
		got, err := TCritical(c.nu, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want)/c.want > 0.01 {
			t.Errorf("TCritical(nu=%v) = %v, want ~%v", c.nu, got, c.want)
		}
	}
}

func TestTCriticalErrors(t *testing.T) {
	if _, err := TCritical(0, 0.95); err == nil {
		t.Fatal("nu=0 should fail")
	}
	if _, err := TCritical(5, 1.5); err == nil {
		t.Fatal("confidence > 1 should fail")
	}
}

func TestConfidenceAndPredictionIntervals(t *testing.T) {
	xs := []float64{10, 11, 9, 10.5, 9.5, 10.2, 9.8, 10.1}
	ci, err := ConfidenceInterval(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := PredictionInterval(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ci <= 0 || pi <= 0 {
		t.Fatalf("intervals must be positive: ci=%v pi=%v", ci, pi)
	}
	if pi <= ci {
		t.Fatalf("prediction interval (%v) must exceed mean CI (%v)", pi, ci)
	}
	if _, err := ConfidenceInterval([]float64{1}, 0.95); err != ErrInsufficient {
		t.Fatalf("single-sample CI err = %v", err)
	}
}

func TestOutlierFilterCleanData(t *testing.T) {
	i := 0
	vals := []float64{10, 10.1, 9.9, 10.05, 9.95, 10.02}
	res, err := DefaultOutlierFilter().Collect(len(vals), func() float64 {
		v := vals[i%len(vals)]
		i++
		return v
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resampled != 0 {
		t.Fatalf("clean data should not be resampled, got %d", res.Resampled)
	}
	if len(res.Values) != len(vals) {
		t.Fatalf("got %d values", len(res.Values))
	}
}

func TestOutlierFilterReplacesSpike(t *testing.T) {
	// The thesis collects 30 samples; the initial batch contains one gross
	// outlier (a descheduled run), and re-collected draws are clean.
	const n = 30
	i := 0
	sample := func() float64 {
		i++
		if i == 5 {
			return 500 // the spike, only in the initial batch
		}
		return 10 + 0.01*float64(i%7)
	}
	res, err := DefaultOutlierFilter().Collect(n, sample)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resampled == 0 {
		t.Fatal("spike should have been resampled")
	}
	for _, v := range res.Values {
		if v > 100 {
			t.Fatalf("spike survived filtering: %v", v)
		}
	}
}

func TestOutlierFilterInsufficient(t *testing.T) {
	if _, err := DefaultOutlierFilter().Collect(1, func() float64 { return 1 }); err != ErrInsufficient {
		t.Fatalf("err = %v", err)
	}
}

func TestOutlierFilterDefaultsApplied(t *testing.T) {
	// Zero-valued filter falls back to 95 % / 16 rounds and still works.
	f := OutlierFilter{}
	res, err := f.Collect(4, func() float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 4 {
		t.Fatalf("got %d values", len(res.Values))
	}
}

// TestTCriticalMemoMatchesSearch checks the memoized entry point against the
// bisection it caches, first call and repeat alike, by bits.
func TestTCriticalMemoMatchesSearch(t *testing.T) {
	for _, nu := range []float64{1, 4, 9, 29} {
		for _, conf := range []float64{0.9, 0.95} {
			want, err := tCriticalSearch(nu, conf)
			if err != nil {
				t.Fatal(err)
			}
			for call := 0; call < 2; call++ {
				got, err := TCritical(nu, conf)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("TCritical(%g, %g) call %d = %.17g, search %.17g", nu, conf, call, got, want)
				}
			}
		}
	}
}
