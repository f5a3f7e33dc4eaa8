package verify

import (
	"context"
	"sync"
	"testing"

	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/sim"
)

// TestConcurrentPlanBuilds: a design's plan, and its lazily built
// four-state lowering, are built once and shared safely by concurrent
// callers (run under -race in CI). Service.Compile hands one cached design
// to concurrent /stimulus requests, each of which may be the first to run
// it in the four-state domain.
func TestConcurrentPlanBuilds(t *testing.T) {
	d, diags, err := compile.Compile(corpus.EdgeDetect().Source())
	if err != nil || compile.HasErrors(diags) {
		t.Fatal("fixture broken")
	}
	stim := sim.VecStimulus{Inputs: d.Inputs(false)}
	for c := range 12 {
		row := make([]uint64, len(stim.Inputs))
		for i := range row {
			row[i] = uint64(c*5+i*3) >> 1 & 1
		}
		stim.Rows = append(stim.Rows, row)
	}
	plans := make([]*sim.Plan, 32)
	traces := make([]string, len(plans))
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plans[i] = sim.PlanOf(d)
			tr, err := sim.NewVecRunner(d, sim.FourState).Run(context.Background(), stim)
			if errs[i] = err; err == nil {
				traces[i] = tr.Format(nil)
			}
		}()
	}
	wg.Wait()
	if plans[0] == nil {
		t.Fatal("EdgeDetect has no plan")
	}
	for i := range plans {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: four-state run: %v", i, errs[i])
		}
		if plans[i] != plans[0] {
			t.Fatalf("goroutine %d saw a different plan: %p vs %p", i, plans[i], plans[0])
		}
		if traces[i] != traces[0] {
			t.Fatalf("goroutine %d traced\n%s\ngoroutine 0 traced\n%s", i, traces[i], traces[0])
		}
	}
}
