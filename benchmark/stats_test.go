package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected quartiles are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs) on the same vectors.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3.5, 1.25, 9, 7, 2.5, 8, 4}, 2.5, 4, 8},
		{[]float64{10, 20, 30}, 10, 20, 30},
		{[]float64{42}, 42, 42, 42},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("%v: got [%g %g %g], want [%g %g %g]", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, (8.25-2.75)/5.5) {
		t.Errorf("spread = %g", s)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // sorted: 10 20 30 40
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.5, 25}, {1, 40}, {0.9, 37}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestTailPercentileTenBeyondRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n        int
		pct, val float64
	}{
		{1000, 99, percentile(ramp(1000), 0.99)},
		{999, 90, percentile(ramp(999), 0.90)},
		{100, 90, percentile(ramp(100), 0.90)},
		{99, 100, 99},
		{2, 100, 2},
	} {
		val, pct := tailPercentile(ramp(c.n))
		if pct != c.pct || !near(val, c.val) {
			t.Errorf("n=%d: got p%g = %g, want p%g = %g", c.n, pct, val, c.pct, c.val)
		}
		if beyond := float64(c.n) - float64(c.n)*pct/100; pct < 100 && beyond < 10 {
			t.Errorf("n=%d: p%g has only %g samples beyond it", c.n, pct, beyond)
		}
	}
}
