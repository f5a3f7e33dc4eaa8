package formal

import (
	"context"
	"testing"

	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/testenv"
)

// TestCheckAllocsBounded guards the scalar check's reuse of one run state:
// a passing exhaustive check of EdgeDetect allocates a bounded number of
// objects whatever its run count, where one trace, one result and one
// stimulus per run would cost hundreds of thousands at 4096 runs.
func TestCheckAllocsBounded(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector changes allocation counts")
	}
	d, diags, err := compile.Compile(corpus.EdgeDetect().Source())
	if err != nil || compile.HasErrors(diags) {
		t.Fatal("fixture broken")
	}
	allocs := func(depth, runs int) float64 {
		return testing.AllocsPerRun(3, func() {
			res, err := Check(context.Background(), d, Options{Seed: 1, Depth: depth, RandomRuns: 12})
			if err != nil || !res.Pass || res.Strategy != "exhaustive-sequences" || res.Runs != runs {
				t.Fatalf("depth %d: err=%v, result %+v, want an exhaustive pass over %d runs", depth, err, res, runs)
			}
		})
	}
	few, many := allocs(8, 256), allocs(12, 4096)
	t.Logf("allocs per check: %.0f at 256 runs, %.0f at 4096 runs", few, many)
	if many > 100 {
		t.Errorf("a 4096-run check allocates %.0f objects, want at most 100", many)
	}
	if many > few+8 {
		t.Errorf("allocations grow with the run count: %.0f at 256 runs, %.0f at 4096", few, many)
	}
}
