package lint_test

import (
	"runtime"
	"testing"

	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/lint"
	"repro/internal/testenv"
)

// TestAnalyzeAllocs guards the per-signal checks against building a set
// per assignment: constant proofs and reset checks test every signal
// against every assignment, and a name set per test costs
// pipeline_s36_w16 about 1.4 MB per analysis.
func TestAnalyzeAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector changes allocation counts")
	}
	const name = "pipeline_s36_w16"
	var src string
	for bp := range (corpus.CatalogSource{}).Blueprints() {
		if bp.Name() == name {
			src = bp.Source()
		}
	}
	if src == "" {
		t.Fatalf("catalog has no %s", name)
	}
	d, diags, err := compile.Compile(src)
	if err != nil || compile.HasErrors(diags) {
		t.Fatalf("%s does not compile: %v %v", name, err, diags)
	}
	lint.Analyze(d)
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		lint.Analyze(d)
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%s: %d bytes allocated per analysis", name, perRun)
	const limit = 256 << 10
	if perRun > limit {
		t.Errorf("analysing %s allocates %d bytes, want at most %d", name, perRun, limit)
	}
}
