package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of the values (q in (0,1]):
// the smallest value with at least a q share of the sample at or below it.
// It sorts a copy, so callers keep their operation order.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(values []float64) float64 { return quantile(values, 0.5) }

// quartiles returns the first quartile, the median and the third quartile
// the way Python's statistics.quantiles(values, n=4) computes them (the
// exclusive method), which is the spread rule the benchmark's bounds are
// judged by. Fewer than two values have no spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	n := len(values)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// statistics.quantiles, method="exclusive": position k(n+1)/4,
		// 1-based, clamped to 1..n-1, interpolated with exact integers.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
