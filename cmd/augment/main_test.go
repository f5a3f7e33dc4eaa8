package main

import (
	"os"
	"strings"
	"testing"

	"repro/internal/augment"
	"repro/internal/corpus"
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
