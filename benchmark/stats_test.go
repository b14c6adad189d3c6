package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianQuartiles(t *testing.T) {
	// Expected quartiles are Python's statistics.quantiles(xs, n=4), the
	// method the acceptance procedure is stated in.
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 5.5, 2.75, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 3, 1.5, 4.5},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{7}, 7, 7, 7},
		{nil, 0, 0, 0},
	}
	for _, c := range cases {
		if got := median(c.xs); !near(got, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	// Ten samples must lie beyond the percentile for it to be quoted.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{100, 90, true}, {99, 90, false}, {200, 95, true}, {199, 95, false}, {14, 50, false}, {20, 50, true}} {
		if got := percentileEligible(c.n, c.p); got != c.want {
			t.Errorf("percentileEligible(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}
