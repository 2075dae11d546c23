package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile for
// it to mean anything: p90 needs at least 100 samples.
const minBeyond = 10

// tailLevels are the percentiles tailLevel chooses from, highest first.
var tailLevels = []float64{0.99, 0.95, 0.9, 0.75, 0.5}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest-rank position of quantile p in n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank p-quantile of xs (0 when empty). It
// reports a measured sample, never an interpolation between two.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[rank(len(xs), p)-1]
}

// beyond counts the samples above the nearest-rank p-quantile of n.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailLevel returns the highest of tailLevels that has at least minBeyond
// samples beyond it among n, or ok=false when not even the median has.
func tailLevel(n int) (p float64, ok bool) {
	for _, p := range tailLevels {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// median is the middle of xs, averaging the two middle samples of an even
// count (0 when empty).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// mean is the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio divides, returning 0 for a zero denominator: a layer a workload
// never exercises reports 0, not NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
