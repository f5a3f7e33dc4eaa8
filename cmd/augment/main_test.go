package main

import (
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/augment"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/verilog"
)

// TestRunShardedBrokenGoldenLeavesNoShards: when a golden design fails to
// compile mid-run, the sharded writer reports the design and removes every
// shard it wrote, so dataset.Load never sees a partial build.
func TestRunShardedBrokenGoldenLeavesNoShards(t *testing.T) {
	m, err := verilog.Parse("module broken_golden (input clk, output reg q);\n" +
		"always @(posedge clk) q <= undeclared_d;\nendmodule\n")
	if err != nil {
		t.Fatal(err)
	}
	src := corpus.FuncSource("broken", func() []*corpus.Blueprint {
		return []*corpus.Blueprint{corpus.Counter(3, 5), {Family: "broken", Module: m}, corpus.Parity(6)}
	})
	for _, format := range []string{"jsonl", "bin"} {
		t.Run(format, func(t *testing.T) {
			dir := t.TempDir()
			cfg := augment.Config{Seed: 5, MutationsPerDesign: 2, RandomRuns: 6, Source: src}
			err := runSharded(cfg, dir, 2, format)
			if err == nil || !strings.Contains(err.Error(), "broken_golden") {
				t.Fatalf("got error %v, want one naming broken_golden", err)
			}
			left, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range left {
				t.Errorf("shard %s left behind", e.Name())
			}
		})
	}
}

// TestRunShardedZeroShards: -shards 0 writes one shard per dataset, and
// the closing message reports the shard count the files have.
func TestRunShardedZeroShards(t *testing.T) {
	src := corpus.FuncSource("zero", func() []*corpus.Blueprint {
		return []*corpus.Blueprint{corpus.Counter(3, 5), corpus.Parity(6)}
	})
	for _, format := range []string{"jsonl", "bin"} {
		t.Run(format, func(t *testing.T) {
			dir := t.TempDir()
			cfg := augment.Config{Seed: 5, MutationsPerDesign: 2, RandomRuns: 6, Source: src}
			out := captureStdout(t, func() error { return runSharded(cfg, dir, 0, format) })
			if !strings.Contains(out, "(1 shards each)") {
				t.Errorf("output does not report one shard per dataset:\n%s", out)
			}
			for _, base := range []string{"verilog_pt", "verilog_bug", "sva_bug", "sva_eval_machine", "sva_eval_human"} {
				paths, err := dataset.ShardPaths(dir, base)
				if err != nil {
					t.Fatal(err)
				}
				if len(paths) != 1 {
					t.Errorf("%s: %d shard files %v, want 1", base, len(paths), paths)
				}
			}
		})
	}
}

// TestModesSplitIdentically: the json, bin and -stats modes split one
// corpus into the same train and eval module sets and print the same
// dataset sizes and Table II counts. The -stats mode writes no dataset,
// so its split shows only in what it prints.
func TestModesSplitIdentically(t *testing.T) {
	src := corpus.FuncSource("modes", func() []*corpus.Blueprint {
		return []*corpus.Blueprint{
			corpus.Counter(4, 9), corpus.ShiftReg(3), corpus.Accu(4, 2),
			corpus.Parity(8), corpus.Gray(4), corpus.EdgeDetect(),
		}
	})
	cfg := augment.Config{Seed: 5, MutationsPerDesign: 2, RandomRuns: 6, TrainFrac: 0.5, Source: src}
	jsonDir, binDir := t.TempDir(), t.TempDir()
	modes := []struct {
		name string
		run  func() error
	}{
		{"json", func() error { return runJSON(cfg, jsonDir) }},
		{"bin", func() error { return runSharded(cfg, binDir, 2, "bin") }},
		{"stats", func() error { return runStatsOnly(cfg) }},
	}
	var want string
	for _, m := range modes {
		got := splitReport(t, captureStdout(t, m.run))
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("%s mode reports\n%s\njson mode reports\n%s", m.name, got, want)
		}
	}
	for _, base := range []string{"sva_bug", "sva_eval_machine"} {
		jm, bm := loadModules(t, jsonDir, base), loadModules(t, binDir, base)
		if len(jm) == 0 {
			t.Fatalf("%s holds no module: the corpus does not exercise the split", base)
		}
		if !maps.Equal(jm, bm) {
			t.Errorf("%s modules: json %v, bin %v", base, slices.Sorted(maps.Keys(jm)), slices.Sorted(maps.Keys(bm)))
		}
	}
}

// captureStdout returns what run prints to standard output.
func captureStdout(t *testing.T, run func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = run()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// splitReport keeps the lines of a mode's report that the split decides:
// the dataset sizes and the Table II distribution.
func splitReport(t *testing.T, out string) string {
	t.Helper()
	var keep []string
	inTable := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "Datasets:"):
			keep = append(keep, line)
		case line == "Table II distribution:":
			inTable = true
			keep = append(keep, line)
		case strings.Contains(line, "datasets written to"):
			inTable = false
		case inTable:
			keep = append(keep, line)
		}
	}
	if len(keep) < 3 {
		t.Fatalf("no split report in output:\n%s", out)
	}
	return strings.TrimSpace(strings.Join(keep, "\n"))
}

// loadModules returns the module names of the dataset base in dir.
func loadModules(t *testing.T, dir, base string) map[string]bool {
	t.Helper()
	samples, err := dataset.Load[dataset.SVASample](dir, base)
	if err != nil {
		t.Fatal(err)
	}
	mods := map[string]bool{}
	for _, s := range samples {
		mods[s.Module] = true
	}
	return mods
}
