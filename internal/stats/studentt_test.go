package stats

import (
	"fmt"
	"math"
	"math/rand"
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

// thesisFilter is the 95 % filter the thesis uses with 30 samples.
var thesisFilter = OutlierFilter{Confidence: 0.95, MaxRounds: 16}

func TestConfidenceAndPredictionIntervals(t *testing.T) {
	xs := []float64{10, 11, 9, 10.5, 9.5, 10.2, 9.8, 10.1}
	// The half-width of the mean's confidence interval, t·s/√n.
	sd, _ := StdDev(xs)
	tcrit, err := TCritical(float64(len(xs)-1), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	ci := tcrit * sd / math.Sqrt(float64(len(xs)))
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
	if _, err := PredictionInterval([]float64{1}, 0.95); err != ErrInsufficient {
		t.Fatalf("single-sample PI err = %v", err)
	}
}

func TestOutlierFilterCleanData(t *testing.T) {
	i := 0
	vals := []float64{10, 10.1, 9.9, 10.05, 9.95, 10.02}
	res, err := thesisFilter.Collect(len(vals), func() float64 {
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
	res, err := thesisFilter.Collect(n, sample)
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
	if _, err := thesisFilter.Collect(1, func() float64 { return 1 }); err != ErrInsufficient {
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

// tPDFLoop is the density as TCDF's loop evaluated it before the constant
// factor was hoisted: both Gamma calls at every point.
func tPDFLoop(x, nu float64) float64 {
	return math.Gamma((nu+1)/2) / (math.Sqrt(nu*math.Pi) * math.Gamma(nu/2)) *
		math.Pow(1+x*x/nu, -(nu+1)/2)
}

// tCriticalLoop is the search as it was before tGrid: a bisection that
// integrates TCDF from 0 at every probe. It is the oracle the tabulated
// search is held to.
func tCriticalLoop(nu, confidence float64) float64 {
	target := 0.5 + confidence/2
	lo, hi := 0.0, 1.0
	for TCDF(hi, nu) < target {
		hi *= 2
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if TCDF(mid, nu) < target {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-7 {
			break
		}
	}
	return (lo + hi) / 2
}

// TestTabulatedSearchMatchesLoop holds the one-pass search to the loop it
// replaced, by bits: the hoisted density to the density written in one
// expression, the grid's CDF to TCDF at random points, and the critical
// values for nu 1…40 at the confidence the kernel-rate benchmark uses.
func TestTabulatedSearchMatchesLoop(t *testing.T) {
	for nu := 1.0; nu <= 40; nu++ {
		t.Run(fmt.Sprint("nu=", nu), func(t *testing.T) {
			t.Parallel() // the loop integrates from 0 at every probe: ≈0.1 s a nu
			r := rand.New(rand.NewSource(int64(nu)))
			d, g := newTDensity(nu), newTGrid(nu)
			for k := 0; k < 200; k++ {
				x := 6 * r.Float64()
				if got, want := d.at(x), tPDFLoop(x, nu); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("density(%v) = %v, the one expression %v", x, got, want)
				}
				if x == 0 || k%25 != 0 { // TCDF integrates from 0: a few points a nu
					continue
				}
				if got, want := g.cdf(x), TCDF(x, nu); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("grid CDF(%v) = %v, TCDF %v", x, got, want)
				}
			}
			got, err := tCriticalSearch(nu, 0.95)
			if err != nil {
				t.Fatal(err)
			}
			if want := tCriticalLoop(nu, 0.95); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("TCritical(%v, 0.95) = %.17g, the loop %.17g", nu, got, want)
			}
		})
	}
}
