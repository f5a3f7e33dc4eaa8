package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareVerdicts(t *testing.T) {
	higher := specMetric{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	lower := specMetric{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	layer := specMetric{Name: "formal.check_ms", Unit: "ms", Better: "lower"}
	old := []float64{100, 101, 99, 100, 102, 98, 100}
	cases := []struct {
		name string
		m    specMetric
		old  []float64
		new  []float64
		want string
	}{
		{"same", higher, old, []float64{100, 99, 101, 100, 100, 102, 98}, verdictWithin},
		{"better beyond the spread", higher, old, []float64{110, 111, 109, 110, 112, 108, 110}, verdictBetter},
		{"slightly worse", higher, old, []float64{96, 97, 95, 96, 98, 94, 96}, verdictWithin},
		{"worse beyond bound", higher, old, []float64{80, 81, 79, 80, 82, 78, 80}, verdictWorse},
		{"lower is better", lower, old, []float64{80, 81, 79, 80, 82, 78, 80}, verdictBetter},
		{"lower, worse beyond bound", lower, old, []float64{120, 121, 119, 120, 122, 118, 120}, verdictWorse},
		{"noisy", higher, old, []float64{60, 140, 100, 70, 130, 90, 110}, verdictUnresolved},
		{"noisy but every new run better", higher, []float64{50, 60, 70, 80}, []float64{100, 120, 140, 160}, verdictBetter},
		{"per-layer worse", layer, old, []float64{120, 121, 119, 120, 122, 118, 120}, verdictLayerWorse},
		{"per-layer noise", layer, old, []float64{101, 99, 100, 102, 98, 100, 100}, verdictNoise},
	}
	for _, c := range cases {
		if _, got := compareMetric(c.m, c.old, c.new); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if d, _ := compareMetric(lower, []float64{10}, []float64{8}); !near(d, 0.2) {
		t.Errorf("delta of a 20%% latency drop = %g", d)
	}
}

func TestCompareFilesFlagsRegression(t *testing.T) {
	spec := &benchSpec{EndToEnd: []specMetric{{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}}}
	file := func(vals ...float64) *resultFile {
		return &resultFile{Workloads: map[string]*workloadResult{
			"judge": {Summary: map[string]summary{"work_per_s": summarizeValues("1/s", vals)}},
		}}
	}
	dir := t.TempDir()
	oldPath, newPath := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	if err := writeJSON(oldPath, file(100, 101, 99)); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(newPath, file(70, 71, 69)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := compareFiles(&out, spec, oldPath, newPath)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 || !strings.Contains(out.String(), "work_per_s") || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("exit %d, output:\n%s", code, out.String())
	}
}
