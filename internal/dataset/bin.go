package dataset

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/dataset/binfmt"
)

// This file is the binary serialisation layer: the same sharded,
// round-robin dataset streams as the JSONL layer, but encoded in the
// binfmt container (length-prefixed records, per-shard string
// interning, footer offset index). The generic readers (ForEachShard,
// ReadShards, Load) autodetect the format of every shard file from
// its magic bytes, so the two layers interoperate transparently.

// Record type tags and the per-record format version. The version is
// bumped when a type's field layout changes; readers reject versions
// they do not know instead of misparsing.
const (
	recPT     = 1 // PTEntry
	recBug    = 2 // BugEntry
	recSample = 3 // SVASample

	recVersion = 1
)

// binShardFile formats the path of binary shard i for a dataset base.
func binShardFile(dir, base string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%05d.bin", base, i))
}

// EncodeRecord appends one dataset entry (a PTEntry, BugEntry or
// SVASample, by value or pointer) to a binfmt record encoder. The
// field order is the on-disk layout and must stay stable within a
// record version.
func EncodeRecord(e *binfmt.Encoder, v any) error {
	switch x := v.(type) {
	case *PTEntry:
		e.Byte(recPT)
		e.Uvarint(recVersion)
		e.String(x.Name)
		e.String(x.Code)
		e.String(x.Spec)
		e.Bool(x.Compiles)
		e.String(x.Analysis)
	case PTEntry:
		return EncodeRecord(e, &x)
	case *BugEntry:
		e.Byte(recBug)
		e.Uvarint(recVersion)
		e.String(x.Name)
		e.IStr(x.Spec)
		e.String(x.BuggyCode)
		e.String(x.BuggyLine)
		e.IStr(x.FixedLine)
		e.Int(x.LineNo)
		e.Trace(x.DiffReport)
	case BugEntry:
		return EncodeRecord(e, &x)
	case *SVASample:
		e.Byte(recSample)
		e.Uvarint(recVersion)
		e.String(x.ID)
		e.IStr(x.Module)
		e.IStr(x.Family)
		e.IStr(x.Spec)
		e.String(x.BuggyCode)
		e.IStr(x.GoldenCode)
		e.Trace(x.Logs)
		e.Int(x.LineNo)
		e.String(x.BuggyLine)
		e.IStr(x.FixedLine)
		e.String(x.CoT)
		e.Bool(x.CoTValid)
		e.IStr(x.Syn)
		e.Bool(x.IsCond)
		e.Bool(x.IsDirect)
		e.Int(x.Lines)
		e.Int(x.CheckDepth)
		e.IStr(x.Origin)
	case SVASample:
		return EncodeRecord(e, &x)
	default:
		return fmt.Errorf("dataset: cannot binary-encode %T", v)
	}
	return nil
}

// DecodeRecord reads one dataset entry, dispatching on the record's
// own type tag; it returns a PTEntry, BugEntry or SVASample value.
func DecodeRecord(d *binfmt.Decoder) (any, error) {
	tag := d.Byte()
	ver := d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if ver != recVersion {
		return nil, fmt.Errorf("dataset: record version %d (supported: %d)", ver, recVersion)
	}
	switch tag {
	case recPT:
		var x PTEntry
		x.Name = d.String()
		x.Code = d.String()
		x.Spec = d.String()
		x.Compiles = d.Bool()
		x.Analysis = d.String()
		return x, d.Err()
	case recBug:
		var x BugEntry
		x.Name = d.String()
		x.Spec = d.IStr()
		x.BuggyCode = d.String()
		x.BuggyLine = d.String()
		x.FixedLine = d.IStr()
		x.LineNo = d.Int()
		x.DiffReport = d.Trace()
		return x, d.Err()
	case recSample:
		var x SVASample
		x.ID = d.String()
		x.Module = d.IStr()
		x.Family = d.IStr()
		x.Spec = d.IStr()
		x.BuggyCode = d.String()
		x.GoldenCode = d.IStr()
		x.Logs = d.Trace()
		x.LineNo = d.Int()
		x.BuggyLine = d.String()
		x.FixedLine = d.IStr()
		x.CoT = d.String()
		x.CoTValid = d.Bool()
		x.Syn = d.IStr()
		x.IsCond = d.Bool()
		x.IsDirect = d.Bool()
		x.Lines = d.Int()
		x.CheckDepth = d.Int()
		x.Origin = d.IStr()
		return x, d.Err()
	default:
		return nil, fmt.Errorf("dataset: unknown record type tag %d", tag)
	}
}

// BinWriter streams dataset entries into binary shard files named
// <base>-00000.bin, ..., mirroring ShardedWriter: round-robin
// assignment, deterministic output for a fixed entry stream, not safe
// for concurrent use. Memory stays flat except for the per-shard
// intern tables, which grow with distinct repeated strings (module
// names, specs, golden code), not with record count.
type BinWriter struct {
	paths []string
	files []*os.File
	bufs  []*bufio.Writer
	ws    []*binfmt.Writer
	next  int
	count int
}

// NewBinWriter creates (truncating) the binary shard files. shards <= 0
// means a single shard.
func NewBinWriter(dir, base string, shards int) (*BinWriter, error) {
	if shards <= 0 {
		shards = 1
	}
	w := &BinWriter{}
	for i := 0; i < shards; i++ {
		path := binShardFile(dir, base, i)
		f, err := os.Create(path)
		if err != nil {
			w.Close()
			return nil, err
		}
		buf := bufio.NewWriter(f)
		bw, err := binfmt.NewWriter(buf)
		if err != nil {
			f.Close()
			w.Close()
			return nil, err
		}
		w.paths = append(w.paths, path)
		w.files = append(w.files, f)
		w.bufs = append(w.bufs, buf)
		w.ws = append(w.ws, bw)
	}
	return w, nil
}

// Write appends one entry as a binary record to the next shard.
func (w *BinWriter) Write(v any) error {
	bw := w.ws[w.next]
	if err := EncodeRecord(bw.Record(), v); err != nil {
		return err
	}
	if err := bw.Commit(); err != nil {
		return err
	}
	w.next = (w.next + 1) % len(w.ws)
	w.count++
	return nil
}

// Count returns the number of entries written so far.
func (w *BinWriter) Count() int { return w.count }

// Paths returns the shard file paths in shard order.
func (w *BinWriter) Paths() []string { return w.paths }

// Close writes every shard's footer, flushes and closes the files,
// reporting the first error.
func (w *BinWriter) Close() error {
	var first error
	for i, f := range w.files {
		if w.ws[i] != nil {
			if err := w.ws[i].Close(); err != nil && first == nil {
				first = err
			}
		}
		if err := w.bufs[i].Flush(); err != nil && first == nil {
			first = err
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	w.files = nil
	w.bufs = nil
	w.ws = nil
	return first
}

// BinReader opens one binary shard for random access: Count records,
// each addressable in O(1) via the shard's footer index. At is safe
// for concurrent use, so disjoint goroutines can scan one shard in
// parallel.
type BinReader struct {
	r *binfmt.Reader
	f *os.File
}

// OpenBin opens a binary shard file.
func OpenBin(path string) (*BinReader, error) {
	r, f, err := binfmt.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &BinReader{r: r, f: f}, nil
}

// Count returns the number of records in the shard.
func (r *BinReader) Count() int { return r.r.Count() }

// At decodes record i, returning a PTEntry, BugEntry or SVASample.
func (r *BinReader) At(i int) (any, error) {
	d, err := r.r.At(i)
	if err != nil {
		return nil, err
	}
	return DecodeRecord(d)
}

// Close releases the underlying file.
func (r *BinReader) Close() error { return r.f.Close() }

// BinAt random-accesses record i of an open shard as a concrete entry
// type.
func BinAt[T any](r *BinReader, i int) (T, error) {
	var zero T
	v, err := r.At(i)
	if err != nil {
		return zero, err
	}
	t, ok := v.(T)
	if !ok {
		return zero, fmt.Errorf("dataset: record %d is %T, want %T", i, v, zero)
	}
	return t, nil
}

// sniffBin reports whether the file at path starts with the binary
// shard magic. Short and empty files are simply not binary shards.
func sniffBin(f *os.File) (bool, error) {
	var head [binfmt.MagicLen]byte
	n, err := io.ReadFull(f, head[:])
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		_, serr := f.Seek(0, io.SeekStart)
		return false, serr
	}
	if err != nil {
		return false, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return false, err
	}
	return binfmt.IsMagic(head[:n]), nil
}
