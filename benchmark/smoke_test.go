package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the judge child: the benchmark
// re-executes its own executable, which under go test is this binary.
func TestMain(m *testing.M) {
	if role := os.Getenv(childEnv); role != "" {
		if err := runChild(role, os.Stdout); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runQuick runs the benchmark with -quick in a temporary work directory
// and returns the decoded last line.
func runQuick(t *testing.T, args ...string) lineResult {
	t.Helper()
	var out bytes.Buffer
	code, err := run(append([]string{"-quick", "-runs", "1", "-work", t.TempDir()}, args...), &out)
	if err != nil || code != 0 {
		t.Fatalf("exit %d: %v\n%s", code, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last lineResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line: %v\n%s", err, out.String())
	}
	if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
		t.Fatalf("result %+v\n%s", last, out.String())
	}
	return last
}

// TestQuickSmokeAllWorkloads runs every workload end to end at smoke scale:
// real cmd/augment and cmd/serve binaries, a judge child, every
// correctness gate and every end-to-end metric.
func TestQuickSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	start := time.Now()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	last := runQuick(t, "-workload", strings.Join(names, ","))
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			got, ok := last.Metrics[w+"/"+m.Name]
			if !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s/%s = %+v", w, m.Name, got)
			}
		}
	}
	t.Logf("quick smoke took %v", time.Since(start).Round(time.Millisecond))
}

// TestQuickTraceWritesEveryLayer checks the traced path on the cheapest
// workload: the trace file holds every per-layer metric and the spans.
func TestQuickTraceWritesEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	dir := t.TempDir()
	last := runQuick(t, "-workload", "serve-stimulus", "-trace", "1", "-trace-dir", dir)
	b, err := os.ReadFile(filepath.Join(dir, "serve-stimulus.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.PerLayer {
		if _, ok := tf.Metrics[m.Name]; !ok {
			t.Errorf("trace lacks %s", m.Name)
		}
		if _, ok := last.Metrics[m.Name]; !ok {
			t.Errorf("last line lacks %s", m.Name)
		}
	}
	for _, name := range []string{"serve.batched_fraction", "trace.overhead"} {
		if _, ok := tf.Metrics[name]; !ok {
			t.Errorf("trace lacks %s", name)
		}
	}
	if len(tf.Spans) == 0 || tf.Layers["serve.stimulus"].Count == 0 {
		t.Errorf("trace has %d spans, layers %v", len(tf.Spans), tf.Layers)
	}
}
