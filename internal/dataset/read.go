package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/dataset/binfmt"
)

// This file holds the format-agnostic readers. Shard files of either
// kind, JSONL or binary, hold entries assigned round-robin by index
// (see Writer), so readers reassemble the original stream order by
// interleaving the shards, holding one entry per shard in memory; each
// file's format is told by its magic bytes, never by its name. Load also
// reads the monolithic <base>.json array.

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
