package dataset

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleFixture(n int) []SVASample {
	out := make([]SVASample, n)
	for i := range out {
		out[i] = SVASample{
			ID:     fmt.Sprintf("mod%d_bug0", i),
			Module: fmt.Sprintf("mod%d", i),
			Lines:  10 + i*37, // spread over bins
			Syn:    "Var",
			Logs:   strings.Repeat("assertion log line\n", 4),
		}
	}
	return out
}

// TestShardedWriterRoundTrip: entries written round-robin come back in the
// original order via ReadShards, whatever the shard count.
func TestShardedWriterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := sampleFixture(17)
	for _, shards := range []int{1, 3, 4, 17, 32} {
		w, err := NewWriter(dir, "sva", "jsonl", shards)
		if err != nil {
			t.Fatal(err)
		}
		for i := range in {
			if err := w.Write(&in[i]); err != nil {
				t.Fatal(err)
			}
		}
		if w.Count() != len(in) {
			t.Errorf("shards=%d: count %d, want %d", shards, w.Count(), len(in))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := len(w.Paths()); got != shards {
			t.Errorf("shards=%d: %d files", shards, got)
		}
		back, err := ReadShards[SVASample](w.Paths())
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(in) {
			t.Fatalf("shards=%d: read %d, wrote %d", shards, len(back), len(in))
		}
		for i := range in {
			if back[i].ID != in[i].ID {
				t.Fatalf("shards=%d: order broken at %d: %s != %s", shards, i, back[i].ID, in[i].ID)
			}
		}
	}
}

// TestShardedWriterDeterministic: the same entry stream produces
// byte-identical shard files.
func TestShardedWriterDeterministic(t *testing.T) {
	in := sampleFixture(11)
	write := func(dir string) {
		w, err := NewWriter(dir, "ds", "jsonl", 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range in {
			if err := w.Write(&in[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	a, b := t.TempDir(), t.TempDir()
	write(a)
	write(b)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("ds-%05d.jsonl", i)
		ra, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(ra) != string(rb) {
			t.Errorf("shard %s differs between identical runs", name)
		}
	}
}

// TestLoadBothFormats: Load reads the monolithic JSON array and the
// sharded JSONL form interchangeably, and reports missing datasets.
func TestLoadBothFormats(t *testing.T) {
	in := sampleFixture(9)

	monoDir, shardDir := t.TempDir(), t.TempDir()
	writeEntries(t, monoDir, "sva_bug", "json", 1, in)
	writeEntries(t, shardDir, "sva_bug", "jsonl", 2, in)

	for _, dir := range []string{monoDir, shardDir} {
		got, err := Load[SVASample](dir, "sva_bug")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(in) {
			t.Fatalf("%s: loaded %d, want %d", dir, len(got), len(in))
		}
		for i := range in {
			if got[i].ID != in[i].ID {
				t.Errorf("%s: entry %d is %s, want %s", dir, i, got[i].ID, in[i].ID)
			}
		}
	}

	if _, err := Load[SVASample](t.TempDir(), "sva_bug"); err == nil {
		t.Error("Load of a missing dataset did not fail")
	}

	// Both formats present must fail loudly: one of them is stale.
	both := t.TempDir()
	for _, dir := range []string{monoDir, shardDir} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(both, e.Name()), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := Load[SVASample](both, "sva_bug"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("Load with both formats present: got %v, want ambiguity error", err)
	}
}

// TestReadJSONLTolerant: JSONL reading handles multi-line-sized entries
// and empty files.
func TestReadJSONLTolerant(t *testing.T) {
	big := sampleFixture(1)
	big[0].Logs = strings.Repeat("x", 1<<20) // 1 MiB entry on one line
	dir := t.TempDir()
	w, err := NewWriter(dir, "big", "jsonl", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&big[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadShards[SVASample](w.Paths())
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || len(back[0].Logs) != 1<<20 {
		t.Fatal("large entry mangled")
	}

	empty := filepath.Join(dir, "empty-00000.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadShards[SVASample]([]string{empty})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty shard yielded %d entries", len(got))
	}
}
