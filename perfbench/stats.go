package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
// A percentile with fewer samples past it is decided by a handful of
// outliers and moves from run to run.
const minTail = 10

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the p-quantile (0 ≤ p ≤ 1) of sorted samples, linearly
// interpolated between closest ranks (the R-7 / numpy default rule).
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// median is the 0.5-quantile of xs (any order).
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// quartiles returns the first quartile, median and third quartile of xs
// with Python's statistics.quantiles(xs, n=4) rule (method "exclusive"),
// so the spreads this benchmark reports match the ones computed from its
// output. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// tailPercentile lowers the wanted percentile p (in percent) to the
// highest whole percentile that leaves at least minTail of n samples
// beyond it, and never below the median.
func tailPercentile(n int, p float64) float64 {
	for q := p; q > 50; q = math.Floor(q) - 1 {
		if tailOK(n, q) {
			return q
		}
	}
	return 50
}

// tailOK reports whether percentile p (in percent) of n samples has at
// least minTail samples beyond it.
func tailOK(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minTail-1e-9
}

// mean is the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
