package dataset

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// writeEntries writes in to dataset base in dir through one Writer and
// closes it.
func writeEntries[T any](t *testing.T, dir, base, format string, shards int, in []T) *Writer {
	t.Helper()
	w, err := NewWriter(dir, base, format, shards)
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
	return w
}

// indented is what json.Encoder with SetIndent("", "  ") writes for v.
func indented(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriterJSONMatchesEncoder: the json format streams, entry by entry,
// the bytes json.Encoder with SetIndent("", "  ") writes for the whole
// slice, HTML escaping included, and "null\n" for nothing written.
func TestWriterJSONMatchesEncoder(t *testing.T) {
	code := "module m (input clk, input a, input b, output reg q);\n" +
		"  always @(posedge clk) if (a && b) q <= a > b;\nendmodule\n"
	pt := PTEntry{Name: "m", Code: code, Spec: "q <= a && b", Compiles: true}
	bug := BugEntry{Name: "m_bug0", Spec: "s", BuggyCode: code, BuggyLine: "q <= a > b;",
		FixedLine: "q <= a < b;", LineNo: 2, DiffReport: "cycle 3: q=1 > expected 0\n"}
	svas := sampleFixture(5)
	for i := range svas {
		svas[i].BuggyCode, svas[i].GoldenCode = code, code
		svas[i].BuggyLine, svas[i].FixedLine = "q <= a && b;", "q <= a || b;"
	}
	cases := []struct {
		name string
		in   any
	}{
		{"pt/nil", []PTEntry(nil)},
		{"pt/one", []PTEntry{pt}},
		{"pt/many", []PTEntry{pt, {Name: "n", Code: "module n;\nendmodule\n", Analysis: "x <= 1 && y"}, pt}},
		{"bug/nil", []BugEntry(nil)},
		{"bug/one", []BugEntry{bug}},
		{"bug/many", []BugEntry{bug, bug, {Name: "e"}}},
		{"sample/nil", []SVASample(nil)},
		{"sample/one", svas[:1]},
		{"sample/many", svas},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			var w *Writer
			switch in := c.in.(type) {
			case []PTEntry:
				w = writeEntries(t, dir, "ds", "json", 4, in)
			case []BugEntry:
				w = writeEntries(t, dir, "ds", "json", 4, in)
			case []SVASample:
				w = writeEntries(t, dir, "ds", "json", 4, in)
			}
			if want := []string{filepath.Join(dir, "ds.json")}; !slices.Equal(w.Paths(), want) {
				t.Fatalf("paths %v, want %v", w.Paths(), want)
			}
			got, err := os.ReadFile(w.Paths()[0])
			if err != nil {
				t.Fatal(err)
			}
			if want := indented(t, c.in); !bytes.Equal(got, want) {
				t.Errorf("json file\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// TestWriterRemovesOtherFormats: a new writer removes every file of its
// base in any format, and no other base's files.
func TestWriterRemovesOtherFormats(t *testing.T) {
	in := sampleFixture(3)
	for _, format := range []string{"json", "jsonl", "bin"} {
		t.Run(format, func(t *testing.T) {
			dir := t.TempDir()
			for _, name := range []string{"ds.json", "ds-00000.jsonl", "ds-00007.bin"} {
				if err := os.WriteFile(filepath.Join(dir, name), []byte("stale"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			keep := writeEntries(t, dir, "ds_other", "jsonl", 1, in)
			w := writeEntries(t, dir, "ds", format, 2, in)
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range entries {
				got = append(got, filepath.Join(dir, e.Name()))
			}
			if want := slices.Sorted(slices.Values(append(w.Paths(), keep.Paths()...))); !slices.Equal(got, want) {
				t.Errorf("files %v, want %v", got, want)
			}
			back, err := Load[SVASample](dir, "ds")
			if err != nil {
				t.Fatal(err)
			}
			if len(back) != len(in) {
				t.Errorf("loaded %d entries, want %d", len(back), len(in))
			}
		})
	}
}

// TestNewWriterRejectsUnknownFormat: an unknown format creates nothing.
func TestNewWriterRejectsUnknownFormat(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewWriter(dir, "ds", "csv", 1); err == nil {
		t.Fatal("NewWriter accepted format csv")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("files left behind: %v", entries)
	}
}
