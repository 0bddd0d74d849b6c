// Package stats implements the sample statistics the thesis' benchmarking
// procedures rely on: medians, means and standard deviations, least-squares
// linear regression, Student-t confidence intervals computed by numerical
// integration of the t density (the thesis uses the trapezoid method with the
// C tgamma function), and the 95 % outlier re-sampling filter used to
// stabilise computation-rate benchmarks.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned when a statistic is requested on an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// ErrInsufficient is returned when a statistic requires more data points than
// were provided (e.g. regression over a single point).
var ErrInsufficient = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Variance returns the unbiased sample variance of xs.
func Variance(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, ErrInsufficient
	}
	m, _ := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1), nil
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Median returns the median of xs without modifying the input slice. The
// thesis reports barrier and kernel timings as medians to suppress noise.
func Median(xs []float64) (float64, error) {
	return MedianInPlace(append([]float64(nil), xs...))
}

// MedianInPlace returns the median of xs, sorting xs: for a caller whose
// sample is scratch it allocates nothing.
func MedianInPlace(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2], nil
	}
	// Average the two central order statistics without overflowing when they
	// lie near the float64 extremes, and clamp against rounding at the
	// subnormal end so the median always lies between them.
	lo, hi := xs[n/2-1], xs[n/2]
	mid := lo/2 + hi/2
	if mid < lo {
		mid = lo
	}
	if mid > hi {
		mid = hi
	}
	return mid, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	if len(tmp) == 1 {
		return tmp[0], nil
	}
	pos := q * float64(len(tmp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return tmp[lo], nil
	}
	frac := pos - float64(lo)
	return tmp[lo]*(1-frac) + tmp[hi]*frac, nil
}

// Max returns the maximum of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Min returns the minimum of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Summary bundles the descriptive statistics the benchmark reports carry.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	mean, _ := Mean(xs)
	med, _ := Median(xs)
	sd := 0.0
	if len(xs) > 1 {
		sd, _ = StdDev(xs)
	}
	min, _ := Min(xs)
	max, _ := Max(xs)
	return Summary{N: len(xs), Mean: mean, Median: med, StdDev: sd, Min: min, Max: max}, nil
}

// Regression is a least-squares fit y = Intercept + Gradient·x. The thesis
// extracts computation rate from the gradient of time vs. iteration count,
// and latency/bandwidth from the intercept/gradient of time vs. message size.
type Regression struct {
	Gradient  float64
	Intercept float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
}

// LinearFit computes the least-squares regression line through (xs, ys).
func LinearFit(xs, ys []float64) (Regression, error) {
	if len(xs) != len(ys) {
		return Regression{}, errors.New("stats: x/y length mismatch")
	}
	if len(xs) < 2 {
		return Regression{}, ErrInsufficient
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Regression{}, errors.New("stats: degenerate x values (zero variance)")
	}
	grad := (n*sxy - sx*sy) / den
	icept := (sy - grad*sx) / n
	// Coefficient of determination.
	meanY := sy / n
	var ssTot, ssRes float64
	for i := range xs {
		pred := icept + grad*xs[i]
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Regression{Gradient: grad, Intercept: icept, R2: r2}, nil
}

// Predict evaluates the regression line at x.
func (r Regression) Predict(x float64) float64 {
	return r.Intercept + r.Gradient*x
}
