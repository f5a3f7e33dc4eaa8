package verify

import (
	"sync"
	"testing"

	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/sim"
)

// TestConcurrentLaneChecks: the lazily built lane plan is constructed once
// per design and shared safely by concurrent PlanLanes callers (run under
// -race in CI). The service shares one cached design between its
// callers, so a lane plan can be asked for from many goroutines at once.
func TestConcurrentLaneChecks(t *testing.T) {
	d, diags, err := compile.Compile(corpus.EdgeDetect().Source())
	if err != nil || compile.HasErrors(diags) {
		t.Fatal("fixture broken")
	}
	plans := make([]*sim.LanePlan, 32)
	var wg sync.WaitGroup
	for i := range plans {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			plans[i] = sim.PlanLanes(d)
		}()
	}
	wg.Wait()
	if plans[0] == nil {
		t.Fatal("EdgeDetect has no lane plan")
	}
	for i, p := range plans {
		if p != plans[0] {
			t.Fatalf("goroutine %d built a different lane plan: %p vs %p", i, p, plans[0])
		}
	}
}
