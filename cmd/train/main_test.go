package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// writeShards writes n entries of each training dataset into dir using
// the given format ("jsonl" or "bin").
func writeShards(t *testing.T, dir, format string) {
	t.Helper()
	newWriter := func(base string) *dataset.Writer {
		w, err := dataset.NewWriter(dir, base, format, 1)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	pt := newWriter("verilog_pt")
	if err := pt.Write(&dataset.PTEntry{Name: "m", Code: "module m; endmodule", Compiles: true}); err != nil {
		t.Fatal(err)
	}
	bug := newWriter("verilog_bug")
	if err := bug.Write(&dataset.BugEntry{Name: "m_bug0", BuggyLine: "a", FixedLine: "b"}); err != nil {
		t.Fatal(err)
	}
	sva := newWriter("sva_bug")
	if err := sva.Write(&dataset.SVASample{ID: "m_bug0", Module: "m", Syn: "Var"}); err != nil {
		t.Fatal(err)
	}
	for _, w := range []*dataset.Writer{pt, bug, sva} {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadTrainingDataBothFormats: the loader reads complete datasets in
// either shard format without being told which.
func TestLoadTrainingDataBothFormats(t *testing.T) {
	for _, format := range []string{"jsonl", "bin"} {
		dir := t.TempDir()
		writeShards(t, dir, format)
		pt, vbug, svabug, err := loadTrainingData(dir)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if len(pt) != 1 || len(vbug) != 1 || len(svabug) != 1 {
			t.Fatalf("%s: loaded %d/%d/%d entries, want 1/1/1", format, len(pt), len(vbug), len(svabug))
		}
		if svabug[0].ID != "m_bug0" {
			t.Errorf("%s: sample ID %q", format, svabug[0].ID)
		}
	}
}

// TestLoadTrainingDataRejectsMixedFormats: a dataset split across .jsonl
// and .bin shards must fail with a clear error, never produce a
// zero-sample (or partial) training run.
func TestLoadTrainingDataRejectsMixedFormats(t *testing.T) {
	dir := t.TempDir()
	writeShards(t, dir, "jsonl")
	// Add a binary shard beside sva_bug's JSONL shard: same base, mixed
	// formats. The writer removes its base's other formats, so the shard
	// is written elsewhere and moved in.
	other := t.TempDir()
	w, err := dataset.NewWriter(other, "sva_bug", "bin", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&dataset.SVASample{ID: "m_bug1", Module: "m", Syn: "Var"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(w.Paths()[0], filepath.Join(dir, "sva_bug-00001.bin")); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = loadTrainingData(dir)
	if err == nil {
		t.Fatal("mixed-format dataset loaded without error")
	}
	if !strings.Contains(err.Error(), "mixes formats") {
		t.Errorf("error %q does not name the format mix", err)
	}
}

// TestLoadTrainingDataRejectsUnrecognized: a .bin shard that is not a
// binary container must fail loudly.
func TestLoadTrainingDataRejectsUnrecognized(t *testing.T) {
	dir := t.TempDir()
	writeShards(t, dir, "bin")
	if err := os.WriteFile(filepath.Join(dir, "sva_bug-00000.bin"), []byte("junk, not a shard"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loadTrainingData(dir); err == nil {
		t.Fatal("unrecognized shard content loaded without error")
	}
}

// TestLoadTrainingDataMissing: an empty directory is a hard error
// pointing at cmd/augment.
func TestLoadTrainingDataMissing(t *testing.T) {
	_, _, _, err := loadTrainingData(t.TempDir())
	if err == nil {
		t.Fatal("empty data directory loaded without error")
	}
	if !strings.Contains(err.Error(), "run cmd/augment first") {
		t.Errorf("error %q lacks the remediation hint", err)
	}
}
