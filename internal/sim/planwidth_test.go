package sim

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/testenv"
)

// TestStaticWidthAgreesWithExprWidth pins the planner's widths to the
// interpreter's ExprWidth over every expression of every corpus design,
// with names resolved by the reference simulator built for the design:
// the width each expression lowers with must be the width the
// interpreter computes at runtime. Drift between the two would silently
// diverge the compiled and interpretive backends' masking.
func TestStaticWidthAgreesWithExprWidth(t *testing.T) {
	for _, bp := range corpus.Catalog() {
		d, diags, err := compile.Compile(bp.Source())
		if err != nil || compile.HasErrors(diags) || d == nil {
			t.Fatalf("%s: fixture broken", bp.Name())
		}
		s, err := newSimulator(d, TwoState)
		if err != nil {
			t.Fatalf("%s: %v", bp.Name(), err)
		}
		checkWidths(t, bp.Name(), d, simEnv{s: s})
	}
}

// The compiled Index evaluation must evaluate its base expression before
// the index short-circuit, so error effects (here: an invalid slice as the
// base) are identical on both backends.
func TestIndexBaseEvaluatedBeforeShortCircuit(t *testing.T) {
	src := `
module ix (
    input [7:0] v,
    output y
);
    assign y = v[70:64][100];
endmodule
`
	d := mustCompile(t, src)
	stim := vec(d, "v", [][]uint64{{1}})
	_, errPlan := RunVecCtx(context.Background(), d, stim, TwoState)
	_, errRef := RunReferenceCtx(context.Background(), mustCompile(t, src), stim, TwoState)
	if errPlan == nil || errRef == nil {
		t.Fatalf("invalid slice must fail on both backends: plan=%v reference=%v", errPlan, errRef)
	}
}

// TestPlanBuildLinearInDepth: building both value domains' plans for an
// expression nested 4N operators deep takes well under the 16x of a walk
// that revisits every operand's subtree at every level. It nests three
// shapes: a unary chain, a left-associative binary chain and nested
// concatenations, whose widths each level sums from its operands'. Each
// depth's time is the best of several interleaved builds, after an
// untimed build has grown the goroutine stack, with the collector off so
// no GC cycle or stack scan lands in one build and not the other. A
// quadratic build fails every measurement; a linear one fails only when
// the machine is busy for a whole measurement, so the test takes the best
// of three.
func TestPlanBuildLinearInDepth(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector distorts timings")
	}
	const n, trials = 500, 7
	build := func(t *testing.T, d *compile.Design) time.Duration {
		start := time.Now()
		p, err := buildPlan(d)
		if err == nil {
			_, err = buildPlan4(p)
		}
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Each expression is open repeated depth times, then a, then close
	// repeated depth times.
	for _, shape := range []struct{ name, open, close string }{
		{"unary", "~(", ")"},
		{"binary", "", " ~^ a"},
		{"concat", "{", ", a}"},
	} {
		t.Run(shape.name, func(t *testing.T) {
			designs := func(depth int) []*compile.Design {
				src := fmt.Sprintf("module deep (input [7:0] a, output [7:0] y);\n    assign y = %sa%s;\nendmodule\n",
					strings.Repeat(shape.open, depth), strings.Repeat(shape.close, depth))
				ds := make([]*compile.Design, trials+1)
				for i := range ds {
					ds[i] = mustCompile(t, src)
				}
				return ds
			}
			smallDs, largeDs := designs(n), designs(4*n)
			build(t, largeDs[trials])
			var ratios []float64
			for len(ratios) < 3 {
				var small, large time.Duration
				for i := 0; i < trials; i++ {
					if el := build(t, smallDs[i]); i == 0 || el < small {
						small = el
					}
					if el := build(t, largeDs[i]); i == 0 || el < large {
						large = el
					}
				}
				t.Logf("depth %d: %v, depth %d: %v", n, small, 4*n, large)
				ratios = append(ratios, float64(large)/float64(small))
				if ratios[len(ratios)-1] < 8 {
					return
				}
			}
			t.Errorf("plan build at depth %d took %.1fx the time at depth %d in each of three measurements (%.1f); want < 8x (linear is 4x)",
				4*n, ratios[0], n, ratios)
		})
	}
}

// TestPlanBuildAllocs bounds what building a design's two-state plan and
// its four-state lowering allocates, in allocations and bytes per build.
// A constant that compiled to a two-word closure in two-state, or a
// per-build emitter, shows up here. Each figure is the least of three
// measurements, so an allocation made elsewhere in the process while one
// ran does not count.
func TestPlanBuildAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector changes allocation counts")
	}
	type cost struct{ allocs, bytes uint64 }
	measure := func(build func()) cost {
		const n = 100
		best := cost{^uint64(0), ^uint64(0)}
		var before, after runtime.MemStats
		for range 3 {
			runtime.ReadMemStats(&before)
			for range n {
				build()
			}
			runtime.ReadMemStats(&after)
			best.allocs = min(best.allocs, (after.Mallocs-before.Mallocs)/n)
			best.bytes = min(best.bytes, (after.TotalAlloc-before.TotalAlloc)/n)
		}
		return best
	}
	for _, tc := range []struct {
		name      string
		src       string
		two, four cost
	}{
		{"accu", accuSrc, cost{53, 1488}, cost{52, 1352}},
		{"two-clock", twoClockSrc, cost{24, 824}, cost{23, 664}},
	} {
		d := mustCompile(t, tc.src)
		p, err := buildPlan(d)
		if err == nil {
			_, err = buildPlan4(p)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, got := range []struct {
			domain    string
			got, want cost
		}{
			{"two-state plan", measure(func() { buildPlan(d) }), tc.two},
			{"four-state lowering", measure(func() { buildPlan4(p) }), tc.four},
		} {
			if got.got.allocs > got.want.allocs || got.got.bytes > got.want.bytes {
				t.Errorf("%s %s: %d allocations and %d bytes per build, want at most %d and %d",
					tc.name, got.domain, got.got.allocs, got.got.bytes, got.want.allocs, got.want.bytes)
			}
		}
	}
}
