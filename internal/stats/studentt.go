package stats

import (
	"errors"
	"math"
	"sort"
	"sync"
)

// The thesis' kernel-rate benchmark filters outliers by requiring every
// sample-distribution mean to fall inside a 95 % Student-t confidence
// interval, approximating the critical point by trapezoid integration of the
// t probability density. This file reproduces that machinery with the Go
// standard library only (math.Gamma plays the role of C's tgamma).

// tStep is the thesis' integration resolution.
const tStep = 1e-4

// tDensity is the probability density of the Student-t distribution with nu
// degrees of freedom, its constant factor evaluated once. Go evaluates
// a/(b·c)·d left to right, so c·d is the density written in one expression,
// to the bit.
type tDensity struct{ nu, c float64 }

func newTDensity(nu float64) tDensity {
	return tDensity{nu: nu, c: math.Gamma((nu+1)/2) / (math.Sqrt(nu*math.Pi) * math.Gamma(nu/2))}
}

func (d tDensity) at(x float64) float64 {
	return d.c * math.Pow(1+x*x/d.nu, -(d.nu+1)/2)
}

// TCDF returns the cumulative distribution function of the Student-t
// distribution with nu degrees of freedom, evaluated by trapezoid integration
// with the thesis' 1e-4 step resolution.
func TCDF(x, nu float64) float64 {
	if nu <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0.5
	}
	neg := false
	if x < 0 {
		neg = true
		x = -x
	}
	d := newTDensity(nu)
	// Integrate the density from 0 to x with the trapezoid rule.
	area := 0.0
	prev := d.at(0)
	for t := tStep; t <= x; t += tStep {
		cur := d.at(t)
		area += (prev + cur) / 2 * tStep
		prev = cur
	}
	// Final partial interval up to x.
	if rem := math.Mod(x, tStep); rem > 0 {
		cur := d.at(x)
		area += (prev + cur) / 2 * rem
	}
	p := 0.5 + area
	if neg {
		p = 1 - p
	}
	return p
}

// tGrid is TCDF's integration for one nu tabulated once: t[k] is the k-th
// grid point, the step added k times as TCDF's loop adds it, and area[k] the
// trapezoid area from 0 to t[k], summed in the loop's order. It grows as far
// as it is asked, so a search reads every probe for two density evaluations
// where TCDF integrates from 0 again.
type tGrid struct {
	d       tDensity
	t, area []float64
	last    float64 // the density at the last grid point
}

func newTGrid(nu float64) *tGrid {
	d := newTDensity(nu)
	return &tGrid{d: d, t: []float64{0}, area: []float64{0}, last: d.at(0)}
}

// cdf returns TCDF(x, nu) for x > 0, bit for bit.
func (g *tGrid) cdf(x float64) float64 {
	for t := g.t[len(g.t)-1] + tStep; t <= x; t += tStep {
		cur := g.d.at(t)
		g.area = append(g.area, g.area[len(g.area)-1]+(g.last+cur)/2*tStep)
		g.t = append(g.t, t)
		g.last = cur
	}
	k := sort.SearchFloat64s(g.t, x) // the first point at or past x
	if k == len(g.t) || g.t[k] > x {
		k--
	}
	area := g.area[k]
	if rem := math.Mod(x, tStep); rem > 0 {
		area += (g.d.at(g.t[k]) + g.d.at(x)) / 2 * rem
	}
	return 0.5 + area
}

// TCritical returns the two-sided critical value t* with nu degrees of
// freedom and the given confidence level (e.g. 0.95), i.e. the point where
// P(-t* <= T <= t*) = confidence. The inverse is found by bisection over the
// trapezoid-integrated CDF, mirroring the thesis' linear-interpolation
// refinement below the integration resolution.
//
// The search tabulates the integration once (tGrid: 40 k density
// evaluations at nu = 11, where integrating afresh at every probe took
// 0.7 M) and the function is pure, so each (nu, confidence) is computed once
// per process: the outlier filter asks for the same pair every re-sampling
// round.
func TCritical(nu, confidence float64) (float64, error) {
	if nu <= 0 {
		return 0, errors.New("stats: degrees of freedom must be positive")
	}
	if confidence <= 0 || confidence >= 1 {
		return 0, errors.New("stats: confidence must be in (0,1)")
	}
	key := [2]float64{nu, confidence}
	tCritMemo.Lock()
	t, ok := tCritMemo.m[key]
	tCritMemo.Unlock()
	if ok {
		return t, nil
	}
	t, err := tCriticalSearch(nu, confidence)
	if err != nil {
		return 0, err
	}
	tCritMemo.Lock()
	if len(tCritMemo.m) < tCritMemoMax {
		tCritMemo.m[key] = t
	}
	tCritMemo.Unlock()
	return t, nil
}

// tCritMemo holds the critical values computed so far. Callers ask for a
// handful of sample counts at one or two confidence levels; the cap only keeps
// a caller that sweeps either argument from growing the map without bound
// (past it, values are recomputed as before).
var tCritMemo = struct {
	sync.Mutex
	m map[[2]float64]float64
}{m: map[[2]float64]float64{}}

const tCritMemoMax = 1024

// tCriticalSearch is the uncached bisection behind TCritical, probing TCDF
// through one tGrid.
func tCriticalSearch(nu, confidence float64) (float64, error) {
	g := newTGrid(nu)
	target := 0.5 + confidence/2
	lo, hi := 0.0, 1.0
	for g.cdf(hi) < target {
		hi *= 2
		if hi > 1e6 {
			return 0, errors.New("stats: critical value out of range")
		}
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if g.cdf(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-7 {
			break
		}
	}
	return (lo + hi) / 2, nil
}

// PredictionInterval returns the half-width of the two-sided Student-t
// prediction interval for a single new observation drawn from the same
// population as xs. This is the acceptance band the outlier filter applies to
// individual sample means: a value farther from the grand mean than this is
// re-collected.
func PredictionInterval(xs []float64, confidence float64) (float64, error) {
	if len(xs) < 2 {
		return 0, ErrInsufficient
	}
	sd, err := StdDev(xs)
	if err != nil {
		return 0, err
	}
	tcrit, err := TCritical(float64(len(xs)-1), confidence)
	if err != nil {
		return 0, err
	}
	return tcrit * sd * math.Sqrt(1+1/float64(len(xs))), nil
}

// OutlierFilter implements the thesis' re-sampling rule: sample means outside
// the confidence interval around the grand mean are treated as outliers and
// must be re-collected until none remain.
type OutlierFilter struct {
	// Confidence is the two-sided confidence level, 0.95 in the thesis.
	Confidence float64
	// MaxRounds bounds the number of re-sampling rounds so a noisy source
	// cannot loop forever; the thesis notes that experiments consistently
	// needing two or more re-runs indicate an unrepresentative setup.
	MaxRounds int
}

// FilterResult reports the outcome of a Collect run.
type FilterResult struct {
	// Values are the accepted sample values.
	Values []float64
	// Rounds is the number of re-sampling rounds performed (0 means the
	// initial sample was already free of outliers).
	Rounds int
	// Resampled is the total number of values that were re-collected.
	Resampled int
}

// Collect draws n samples from the sampler and repeatedly re-collects values
// whose distance from the mean exceeds the confidence-interval half-width,
// until no outliers remain or MaxRounds is exhausted.
func (f OutlierFilter) Collect(n int, sample func() float64) (FilterResult, error) {
	if n < 2 {
		return FilterResult{}, ErrInsufficient
	}
	conf := f.Confidence
	if conf <= 0 || conf >= 1 {
		conf = 0.95
	}
	maxRounds := f.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 16
	}
	values := make([]float64, n)
	for i := range values {
		values[i] = sample()
	}
	res := FilterResult{}
	for round := 0; round < maxRounds; round++ {
		mean, _ := Mean(values)
		half, err := PredictionInterval(values, conf)
		if err != nil {
			return res, err
		}
		outliers := 0
		for i, v := range values {
			if math.Abs(v-mean) > half {
				values[i] = sample()
				outliers++
			}
		}
		res.Rounds = round
		res.Resampled += outliers
		if outliers == 0 {
			break
		}
	}
	res.Values = values
	return res, nil
}
