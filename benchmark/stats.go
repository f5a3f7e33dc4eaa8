package main

import (
	"math"
	"sort"
)

// median returns the middle of the values (the mean of the two middle ones
// for an even count), as Python's statistics.median does. It is 0 for no
// values.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles by the method of Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method), so
// the spreads this program reports are the ones a reader recomputes from
// the recorded samples. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// percentile returns the p-th percentile (0 <= p <= 1) by linear
// interpolation between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

// tailPercentile picks the highest reported percentile that has at least
// ten samples beyond it — p99 from 1000 samples, p90 from 100 — and
// returns it with the percentile (99 or 90). Below 100 samples no
// percentile qualifies and the maximum is reported instead, as 100.
func tailPercentile(xs []float64) (value, pct float64) {
	switch n := len(xs); {
	case n >= 1000:
		return percentile(xs, 0.99), 99
	case n >= 100:
		return percentile(xs, 0.90), 90
	default:
		return percentile(xs, 1), 100
	}
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
