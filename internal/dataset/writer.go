package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/dataset/binfmt"
)

// Writer streams the entries of one dataset <base> into a directory in
// one of the three on-disk formats of doc.go:
//
//   - "json": one indented <base>.json array, byte for byte what
//     json.Encoder with SetIndent("", "  ") writes for the whole slice,
//     and "null\n" when nothing was written;
//   - "jsonl": shards <base>-00000.jsonl, ... of one JSON object a line;
//   - "bin": shards <base>-00000.bin, ... in the binfmt container, each
//     ending in its footer.
//
// Shard formats assign entries round-robin, so shard contents depend only
// on the entry stream, never on timing; json writes one file whatever the
// shard count. Only the record encoding differs between formats. Memory
// stays flat except for the bin shards' intern tables, which grow with
// distinct repeated strings (module names, specs, golden code), not with
// record count. Not safe for concurrent use; the augmentation pipeline's
// writer stage is single-goroutine by design.
type Writer struct {
	format string
	paths  []string
	files  []*os.File
	bufs   []*bufio.Writer
	bins   []*binfmt.Writer // bin: one container per shard
	line   bytes.Buffer     // json, jsonl: the entry being encoded
	enc    *json.Encoder    // json, jsonl: encodes into line
	next   int
	count  int
}

// NewWriter creates (truncating) the files of dataset base in dir, in
// format "json", "jsonl" or "bin". It first removes every file of base in
// any format, so a directory holds each dataset in one format only and a
// stale build can never shadow or mix with this one. shards <= 0 means a
// single shard; json ignores shards.
func NewWriter(dir, base, format string, shards int) (*Writer, error) {
	switch format {
	case "json":
		shards = 1
	case "jsonl", "bin":
		shards = max(shards, 1)
	default:
		return nil, fmt.Errorf("dataset: unknown format %q (want json, jsonl or bin)", format)
	}
	if err := removeBase(dir, base); err != nil {
		return nil, err
	}
	w := &Writer{format: format}
	if format != "bin" {
		w.enc = json.NewEncoder(&w.line)
		if format == "json" {
			// Each element sits one level into the array.
			w.enc.SetIndent("  ", "  ")
		}
	}
	for i := 0; i < shards; i++ {
		path := filepath.Join(dir, base+".json")
		if format != "json" {
			path = filepath.Join(dir, fmt.Sprintf("%s-%05d.%s", base, i, format))
		}
		f, err := os.Create(path)
		if err != nil {
			w.Close()
			return nil, err
		}
		// The default 4 KiB buffer: a writer holds one per shard for the
		// whole run, and a larger one would only save write calls.
		buf := bufio.NewWriter(f)
		w.paths = append(w.paths, path)
		w.files = append(w.files, f)
		w.bufs = append(w.bufs, buf)
		if format == "bin" {
			bw, err := binfmt.NewWriter(buf)
			if err != nil {
				w.Close()
				return nil, err
			}
			w.bins = append(w.bins, bw)
		}
	}
	return w, nil
}

// removeBase deletes every file of dataset base in dir, in any format.
func removeBase(dir, base string) error {
	paths, err := ShardPaths(dir, base)
	if err != nil {
		return err
	}
	for _, path := range append(paths, filepath.Join(dir, base+".json")) {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// Write appends one entry (a PTEntry, BugEntry or SVASample, by value or
// pointer) to the next shard. A JSON entry is encoded into the writer's
// own buffer first (json.Encoder emits exactly json.Marshal's bytes plus
// a newline), so a failed encode writes nothing and no marshal result is
// allocated per entry.
func (w *Writer) Write(v any) error {
	buf := w.bufs[w.next]
	if w.format == "bin" {
		bw := w.bins[w.next]
		if err := EncodeRecord(bw.Record(), v); err != nil {
			return err
		}
		if err := bw.Commit(); err != nil {
			return err
		}
	} else {
		w.line.Reset()
		if err := w.enc.Encode(v); err != nil {
			return err
		}
		rec := w.line.Bytes()
		if w.format == "json" {
			// The array owns the separators and the closing newline. A
			// failed write sticks to buf, so the Write below reports it.
			sep := ",\n  "
			if w.count == 0 {
				sep = "[\n  "
			}
			buf.WriteString(sep)
			rec = rec[:len(rec)-1]
		}
		if _, err := buf.Write(rec); err != nil {
			return err
		}
	}
	w.next = (w.next + 1) % len(w.bufs)
	w.count++
	return nil
}

// Count returns the number of entries written so far.
func (w *Writer) Count() int { return w.count }

// Paths returns the file paths in shard order.
func (w *Writer) Paths() []string { return w.paths }

// Close ends the json array or writes every bin shard's footer, then
// flushes and closes the files, reporting the first error: a failed
// flush (e.g. a full disk) must not be mistaken for success.
func (w *Writer) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if w.format == "json" && len(w.bufs) == 1 {
		end := "\n]\n"
		if w.count == 0 {
			end = "null\n"
		}
		_, err := w.bufs[0].WriteString(end)
		keep(err)
	}
	for i, f := range w.files {
		if i < len(w.bins) {
			keep(w.bins[i].Close())
		}
		keep(w.bufs[i].Flush())
		keep(f.Close())
	}
	w.files, w.bufs, w.bins = nil, nil, nil
	return first
}
