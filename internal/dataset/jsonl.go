package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/dataset/binfmt"
)

// This file is the JSONL streaming serialisation layer plus the
// format-agnostic shard readers: datasets written as sharded JSONL
// (one JSON object per line, entries distributed round-robin over
// numbered shard files) instead of one monolithic indented JSON array.
// Shard files append-stream with O(1) memory, shard assignment is a
// pure function of the entry index — so a fixed entry stream always
// produces byte-identical shards — and readers can reassemble the
// original stream order by interleaving. The readers below
// (ForEachShard, ReadShards, Load) also accept the binary shards of
// bin.go, telling the formats apart by each file's magic bytes.

// shardFile formats the path of shard i for a dataset base name.
func shardFile(dir, base string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%05d.jsonl", base, i))
}

// ShardPaths lists the existing shard files for a dataset base name in
// dir — both the <base>-NNNNN.jsonl and <base>-NNNNN.bin kinds — in
// shard order. Callers that must not mix formats (Load) classify the
// result by extension.
func ShardPaths(dir, base string) ([]string, error) {
	var paths []string
	for _, pat := range []string{base + "-*.jsonl", base + "-*.bin"} {
		got, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return nil, err
		}
		paths = append(paths, got...)
	}
	sort.Strings(paths)
	return paths, nil
}

// ShardedWriter streams dataset entries into a fixed set of JSONL shard
// files named <base>-00000.jsonl, <base>-00001.jsonl, ... Entries are
// assigned round-robin, so shard contents depend only on the entry stream,
// never on timing. Not safe for concurrent use; the augmentation
// pipeline's writer stage is single-goroutine by design.
type ShardedWriter struct {
	paths []string
	files []*os.File
	bufs  []*bufio.Writer
	next  int
	count int
}

// NewShardedWriter creates (truncating) the shard files. shards <= 0 means
// a single shard.
func NewShardedWriter(dir, base string, shards int) (*ShardedWriter, error) {
	if shards <= 0 {
		shards = 1
	}
	w := &ShardedWriter{}
	for i := 0; i < shards; i++ {
		path := shardFile(dir, base, i)
		f, err := os.Create(path)
		if err != nil {
			w.Close()
			return nil, err
		}
		w.paths = append(w.paths, path)
		w.files = append(w.files, f)
		// The default 4 KiB buffer: a writer holds one per shard for the
		// whole run, and a larger one would only save write calls.
		w.bufs = append(w.bufs, bufio.NewWriter(f))
	}
	return w, nil
}

// jsonLineEncoder pairs a reusable buffer with a JSON encoder bound to
// it, so Write never allocates a fresh marshal result per entry.
type jsonLineEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonLinePool = sync.Pool{New: func() any {
	e := &jsonLineEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// Write appends one entry as a JSON line to the next shard. The entry
// is encoded into a pooled buffer first (json.Encoder emits exactly
// json.Marshal's bytes plus the terminating newline), keeping the
// encode allocation out of the per-record hot path.
func (w *ShardedWriter) Write(v any) error {
	e := jsonLinePool.Get().(*jsonLineEncoder)
	defer func() {
		e.buf.Reset()
		jsonLinePool.Put(e)
	}()
	if err := e.enc.Encode(v); err != nil {
		return err
	}
	if _, err := w.bufs[w.next].Write(e.buf.Bytes()); err != nil {
		return err
	}
	w.next = (w.next + 1) % len(w.bufs)
	w.count++
	return nil
}

// Count returns the number of entries written so far.
func (w *ShardedWriter) Count() int { return w.count }

// Paths returns the shard file paths in shard order.
func (w *ShardedWriter) Paths() []string { return w.paths }

// Close flushes and closes every shard, reporting the first error — a
// failed flush (e.g. a full disk) must not be mistaken for success.
func (w *ShardedWriter) Close() error {
	var first error
	for i, f := range w.files {
		if err := w.bufs[i].Flush(); err != nil && first == nil {
			first = err
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	w.files = nil
	w.bufs = nil
	return first
}

// shardStream pulls entries of one shard file in either on-disk
// format; the format is decided per file by sniffing the magic bytes,
// never by extension.
type shardStream[T any] struct {
	path string
	f    *os.File
	dec  *json.Decoder  // JSONL shards
	cur  *binfmt.Cursor // binary shards
}

func openShardStream[T any](path string) (*shardStream[T], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s := &shardStream[T]{path: path, f: f}
	isBin, err := sniffBin(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !isBin {
		s.dec = json.NewDecoder(bufio.NewReaderSize(f, 1<<16))
		return s, nil
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := binfmt.Open(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.cur = r.Cursor()
	return s, nil
}

// next returns the shard's next entry, or done=true at the end.
func (s *shardStream[T]) next() (v T, done bool, err error) {
	if s.dec != nil {
		if err = s.dec.Decode(&v); err == io.EOF {
			return v, true, nil
		} else if err != nil {
			return v, false, fmt.Errorf("%s: %w", s.path, err)
		}
		return v, false, nil
	}
	d, ok, err := s.cur.Next()
	if err != nil {
		return v, false, fmt.Errorf("%s: %w", s.path, err)
	}
	if !ok {
		return v, true, nil
	}
	rec, err := DecodeRecord(d)
	if err != nil {
		return v, false, fmt.Errorf("%s: %w", s.path, err)
	}
	v, ok = rec.(T)
	if !ok {
		return v, false, fmt.Errorf("%s: shard holds %T records, want %T", s.path, rec, v)
	}
	return v, false, nil
}

// ForEachShard streams a sharded dataset entry by entry in the round-robin
// order the entries were written in (shard 0 first, then one from each
// shard in turn), holding only one decoded entry per shard in memory.
// Each shard's format — JSONL or binary — is autodetected from its
// magic bytes, so mixed shard sets still reassemble. It stops at the
// first callback error.
func ForEachShard[T any](paths []string, fn func(T) error) error {
	streams := make([]*shardStream[T], 0, len(paths))
	defer func() {
		for _, s := range streams {
			s.f.Close()
		}
	}()
	for _, path := range paths {
		s, err := openShardStream[T](path)
		if err != nil {
			return err
		}
		streams = append(streams, s)
	}
	live := len(streams)
	done := make([]bool, len(streams))
	for live > 0 {
		for i, s := range streams {
			if done[i] {
				continue
			}
			v, end, err := s.next()
			if err != nil {
				return err
			}
			if end {
				done[i] = true
				live--
				continue
			}
			if err := fn(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadShards loads shard files, interleaved back into the order the
// entries were written in.
func ReadShards[T any](paths []string) ([]T, error) {
	var out []T
	err := ForEachShard(paths, func(v T) error {
		out = append(out, v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Load reads the dataset <base> from dir in whichever format is
// present: the monolithic <base>.json array written by the default
// cmd/augment mode, the <base>-*.jsonl shards of its jsonl mode, or
// the <base>-*.bin shards of its binary mode (autodetected from each
// file's magic). When more than one format exists the call fails —
// silently picking one risks training on a stale build from another
// mode — and a shard whose contents do not match its format errors
// instead of yielding a silent zero-sample run.
func Load[T any](dir, base string) ([]T, error) {
	mono := filepath.Join(dir, base+".json")
	f, monoErr := os.Open(mono)
	if monoErr != nil && !os.IsNotExist(monoErr) {
		return nil, monoErr
	}
	paths, err := ShardPaths(dir, base)
	if err != nil {
		if f != nil {
			f.Close()
		}
		return nil, err
	}
	var jsonl, bin int
	for _, p := range paths {
		if strings.HasSuffix(p, ".bin") {
			bin++
		} else {
			jsonl++
		}
	}
	if f != nil && len(paths) > 0 {
		f.Close()
		return nil, fmt.Errorf("dataset %s is ambiguous in %s: both %s.json and %d %s-* shard files exist; remove the stale format", base, dir, base, len(paths), base)
	}
	if jsonl > 0 && bin > 0 {
		if f != nil {
			f.Close()
		}
		return nil, fmt.Errorf("dataset %s in %s mixes formats: %d %s-*.jsonl and %d %s-*.bin shards; remove the stale format", base, dir, jsonl, base, bin, base)
	}
	if f != nil {
		defer f.Close()
		var out []T
		if err := json.NewDecoder(bufio.NewReaderSize(f, 1<<16)).Decode(&out); err != nil {
			return nil, fmt.Errorf("%s: %w", mono, err)
		}
		return out, nil
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("dataset %s not found in %s (no %s.json, %s-*.jsonl or %s-*.bin)", base, dir, base, base, base)
	}
	return ReadShards[T](paths)
}
