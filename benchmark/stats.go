package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an even
// count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the "exclusive" method,
// the one Python's statistics.quantiles(xs, n=4) uses — the acceptance
// procedure is stated in those terms, so compare must agree with it. Fewer
// than two values have no spread: both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := sortedCopy(xs)
	at := func(k int) float64 {
		// Position k*(n+1)/4 on a 1-based scale, linearly interpolated
		// between the neighbours (extrapolated where the position falls
		// outside them, as Python does for very small samples).
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median (0 when the
// median is 0).
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// percentileEligible reports whether at least ten samples lie beyond the
// p-th percentile — the rule for quoting a tail percentile at all.
func percentileEligible(n int, p float64) bool {
	rank := int(math.Ceil(p / 100 * float64(n)))
	return n-rank >= 10
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
