package binfmt

import (
	"encoding/binary"
	"io"
)

// Writer streams framed records to w and appends the string table,
// offset index and trailer on Close. It is single-goroutine, like the
// dataset shard writers built on top of it; the underlying writer is
// not closed by Close.
type Writer struct {
	w      io.Writer
	enc    Encoder
	frames []uint64 // framed size (prefix + payload) of each record
	off    uint64   // bytes written so far
	closed bool
}

// NewWriter writes the header magic and returns a ready writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := &Writer{w: w, enc: Encoder{in: NewInterner()}}
	if _, err := w.Write(Magic[:]); err != nil {
		return nil, err
	}
	bw.off = uint64(len(Magic))
	return bw, nil
}

// Record resets and returns the writer's encoder for the next record.
// The caller fills it with fields and then calls Commit; the encoder
// buffer is reused across records, so encoding allocates only when a
// record outgrows every previous one.
func (w *Writer) Record() *Encoder {
	w.enc.Reset()
	return &w.enc
}

// Commit frames the current encoder payload into the stream.
func (w *Writer) Commit() error {
	var prefix [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(prefix[:], uint64(len(w.enc.buf)))
	if _, err := w.w.Write(prefix[:n]); err != nil {
		return err
	}
	if _, err := w.w.Write(w.enc.buf); err != nil {
		return err
	}
	size := uint64(n + len(w.enc.buf))
	w.frames = append(w.frames, size)
	w.off += size
	return nil
}

// Count returns the number of committed records.
func (w *Writer) Count() int { return len(w.frames) }

// Close writes the footer (string table + record index) and trailer.
// The underlying io.Writer is left open for the caller to flush/close.
// The footer streams straight to w — the string table can reach
// megabytes, so it is never assembled in memory.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	footerOff := w.off
	in := w.enc.in
	if err := w.writeUvarint(uint64(len(in.table))); err != nil {
		return err
	}
	for _, s := range in.table {
		if err := w.writeUvarint(uint64(len(s))); err != nil {
			return err
		}
		if n, err := io.WriteString(w.w, s); err != nil {
			return err
		} else {
			w.off += uint64(n)
		}
	}
	if err := w.writeUvarint(uint64(len(w.frames))); err != nil {
		return err
	}
	for _, size := range w.frames {
		if err := w.writeUvarint(size); err != nil {
			return err
		}
	}
	var trail [trailerLen]byte
	binary.LittleEndian.PutUint64(trail[:8], footerOff)
	copy(trail[8:], Magic[:])
	if _, err := w.w.Write(trail[:]); err != nil {
		return err
	}
	w.off += uint64(len(trail))
	return nil
}

// writeUvarint writes one varint to the underlying writer.
func (w *Writer) writeUvarint(v uint64) error {
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], v)
	m, err := w.w.Write(scratch[:n])
	w.off += uint64(m)
	return err
}
