package sim

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bugs"
	"repro/internal/compile"
	"repro/internal/corpus"
)

// TestCompilesImpliesPlans: every design internal/compile accepts has a
// plan in both value domains, so no run needs a second engine. It covers
// every catalog golden, every mutant bugs.Enumerate makes of one, and
// every regression-corpus program that compiles.
func TestCompilesImpliesPlans(t *testing.T) {
	var compiled, rejected int
	check := func(name, src string) {
		d, diags, err := compile.Compile(src)
		if err != nil || compile.HasErrors(diags) {
			rejected++
			return
		}
		compiled++
		if p := PlanOf(d); p == nil || p.fourState() == nil {
			t.Errorf("%s compiles but has no plan in both value domains", name)
		}
	}
	for _, bp := range corpus.Catalog() {
		check(bp.Name(), bp.Source())
		for _, mu := range bugs.Enumerate(bp.Module, 0) {
			check(bp.Name()+"/"+mu.Label(), bp.SourceWith(mu.Mutant))
		}
	}
	paths, err := filepath.Glob(filepath.Join("..", "fuzz", "testdata", "regressions", "*.v"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("fuzz regression corpus: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		check(filepath.Base(p), string(src))
	}
	t.Logf("%d designs compile and plan; %d do not compile", compiled, rejected)
}
