package testenv

import (
	"testing"
	"time"
)

// CheckLinear fails t unless an operation on an input 4n deep takes less
// than 8x its time on one n deep: a linear operation takes about 4x, a
// quadratic one 16x. setup builds the input at a depth and returns the
// operation on it. Each depth's time is the best of seven interleaved
// runs, after an untimed run at 4n has grown the goroutine stack. A
// quadratic operation fails every measurement; a linear one fails only
// when the machine is busy for a whole measurement, so the check takes
// the best of three. It skips under the race detector, which distorts
// timings.
func CheckLinear(t *testing.T, what string, n int, setup func(depth int) func()) {
	t.Helper()
	if Race {
		t.Skip("the race detector distorts timings")
	}
	const trials = 7
	small, large := setup(n), setup(4*n)
	timed := func(op func()) time.Duration {
		start := time.Now()
		op()
		return time.Since(start)
	}
	timed(large)
	var ratios []float64
	for len(ratios) < 3 {
		var tSmall, tLarge time.Duration
		for i := 0; i < trials; i++ {
			if el := timed(small); i == 0 || el < tSmall {
				tSmall = el
			}
			if el := timed(large); i == 0 || el < tLarge {
				tLarge = el
			}
		}
		t.Logf("%s at depth %d: %v, depth %d: %v", what, n, tSmall, 4*n, tLarge)
		ratios = append(ratios, float64(tLarge)/float64(tSmall))
		if ratios[len(ratios)-1] < 8 {
			return
		}
	}
	t.Errorf("%s at depth %d took %.1fx the time at depth %d in each of three measurements (%.1f); want < 8x (linear is 4x)",
		what, 4*n, ratios[0], n, ratios)
}
