package verify

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/dataset/binfmt"
)

// DiskStore is the persistent record tier: an append-only log of
// (key, record) frames split across shard files, with an in-memory offset
// index rebuilt by scanning on open. The format reuses binfmt's framing
// conventions — shard magic, uvarint-length-prefixed payloads, bounds-
// checked field decoding — and its crash-safety contract: a torn tail
// left by a crash mid-append is detected on reopen, truncated away, and
// the clean prefix served; corruption is an error (binfmt.ErrCorrupt),
// never a panic. Unlike binfmt.Writer (which holds its index for a footer
// written on Close), nothing here depends on a clean shutdown.
//
// Durability: every Put reaches the operating system before it returns,
// and the Service puts a computed record before it answers the check, so
// an answered check survives a crash of the process. A shard is synced to
// stable storage only when the store rotates away from it and on Close,
// so the Puts since the last rotation or Close may be lost on power loss
// (the reopen scan then truncates whatever tail the disk kept).
//
// Get and Put after Close return an error wrapping os.ErrClosed.
type DiskStore struct {
	dir      string
	maxShard int64 // active shard rotates past this many bytes

	mu     sync.Mutex // guards appends, rotation and the index
	index  map[Key]recLoc
	shards []*os.File // nil once closed
	active int64      // size of the last (active) shard
}

type recLoc struct {
	shard int32
	off   int64
	n     int32
}

// defaultMaxShard rotates shards at 64 MiB — large enough that a full
// dataset build stays in a handful of files, small enough to bound the
// blast radius of a corrupt shard.
const defaultMaxShard = 64 << 20

// errClosed is what Get and Put return once Close has run.
var errClosed = fmt.Errorf("verify: disk store: %w", os.ErrClosed)

func shardPath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("verdicts-%05d.bin", id))
}

// OpenDiskStore opens (or creates) the record log in dir, scanning every
// shard to rebuild the offset index. A torn tail — a frame whose length
// prefix, payload or record encoding is incomplete — is truncated off and
// the store opens on the clean prefix; later writes append from there.
func OpenDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names, err := filepath.Glob(filepath.Join(dir, "verdicts-*.bin"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	ds := &DiskStore{dir: dir, maxShard: defaultMaxShard, index: map[Key]recLoc{}}
	for id, name := range names {
		f, err := os.OpenFile(name, os.O_RDWR, 0o644)
		if err != nil {
			ds.closeAll()
			return nil, err
		}
		ds.shards = append(ds.shards, f)
		size, err := ds.scanShard(id, f)
		if err != nil {
			ds.closeAll()
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		ds.active = size
	}
	if len(ds.shards) == 0 {
		if err := ds.addShard(); err != nil {
			ds.closeAll()
			return nil, err
		}
	}
	return ds, nil
}

func (ds *DiskStore) closeAll() {
	for _, f := range ds.shards {
		f.Close()
	}
}

// addShard creates and opens the next shard file with a fresh magic.
func (ds *DiskStore) addShard() error {
	f, err := os.OpenFile(shardPath(ds.dir, len(ds.shards)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(binfmt.Magic[:]); err != nil {
		f.Close()
		return err
	}
	ds.shards = append(ds.shards, f)
	ds.active = int64(binfmt.MagicLen)
	return nil
}

// scanShard walks one shard, indexing every decodable frame and
// truncating the file after the last clean one. It returns the post-scan
// (possibly truncated) size.
func (ds *DiskStore) scanShard(id int, f *os.File) (int64, error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return 0, err
	}
	if len(data) < binfmt.MagicLen {
		// Torn header write: nothing decodable was ever committed. Reset
		// the shard to a clean empty one.
		if err := f.Truncate(0); err != nil {
			return 0, err
		}
		if _, err := f.WriteAt(binfmt.Magic[:], 0); err != nil {
			return 0, err
		}
		return int64(binfmt.MagicLen), nil
	}
	if !binfmt.IsMagic(data) {
		return 0, fmt.Errorf("%w: bad shard magic", binfmt.ErrCorrupt)
	}
	off := binfmt.MagicLen
	for off < len(data) {
		payload, next, ok := nextFrame(data, off)
		if !ok {
			break // torn tail: truncate from the frame start
		}
		var key Key
		copy(key[:], payload)
		if _, err := decodeRecord(payload[sha256.Size:]); err != nil {
			break // half-written record body counts as torn too
		}
		ds.index[key] = recLoc{shard: int32(id), off: int64(off), n: int32(next - off)}
		off = next
	}
	if off < len(data) {
		if err := f.Truncate(int64(off)); err != nil {
			return 0, err
		}
	}
	return int64(off), nil
}

// maxRecordFrame bounds one frame's payload; anything larger is treated
// as corruption rather than allocated (mirrors binfmt's maxFrame stance).
const maxRecordFrame = 1 << 30

// nextFrame decodes the frame starting at off: uvarint payload length,
// then the payload (key + record). ok is false when the frame is
// incomplete or implausible — the torn-tail signal.
func nextFrame(data []byte, off int) (payload []byte, next int, ok bool) {
	n, w := binary.Uvarint(data[off:])
	if w <= 0 || n < sha256.Size || n > maxRecordFrame || n > uint64(len(data)-off-w) {
		return nil, 0, false
	}
	start := off + w
	return data[start : start+int(n)], start + int(n), true
}

// Get returns the stored record, or (nil, nil) on a miss. Records are
// decoded fresh on every read; the caller owns the result.
func (ds *DiskStore) Get(key Key) (*Record, error) {
	ds.mu.Lock()
	if ds.shards == nil {
		ds.mu.Unlock()
		return nil, errClosed
	}
	loc, ok := ds.index[key]
	var f *os.File
	if ok {
		f = ds.shards[loc.shard]
	}
	ds.mu.Unlock()
	if !ok {
		return nil, nil
	}
	buf := make([]byte, loc.n)
	if _, err := f.ReadAt(buf, loc.off); err != nil {
		return nil, err
	}
	payload, _, ok2 := nextFrame(buf, 0)
	if !ok2 {
		return nil, fmt.Errorf("%w: indexed frame undecodable", binfmt.ErrCorrupt)
	}
	rec, err := decodeRecord(payload[sha256.Size:])
	if err != nil {
		return nil, err
	}
	return &rec, nil
}

// Put appends a (key, record) frame to the active shard and indexes it.
// Re-putting a key appends a new frame that shadows the old one — the
// index keeps only the latest location.
func (ds *DiskStore) Put(key Key, rec *Record) error {
	enc := binfmt.NewEncoder()
	appendRecord(enc, rec)
	body := enc.Bytes()
	frame := binary.AppendUvarint(nil, uint64(len(key)+len(body)))
	frame = append(frame, key[:]...)
	frame = append(frame, body...)

	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.shards == nil {
		return errClosed
	}
	f := ds.shards[len(ds.shards)-1]
	off := ds.active
	// One contiguous write: a crash tears at most this frame's tail, which
	// the reopen scan truncates away without touching earlier frames.
	if _, err := f.WriteAt(frame, off); err != nil {
		return err
	}
	ds.index[key] = recLoc{shard: int32(len(ds.shards) - 1), off: off, n: int32(len(frame))}
	ds.active += int64(len(frame))
	if ds.active >= ds.maxShard {
		// A full shard is never written again: make it durable before
		// moving on.
		if err := f.Sync(); err != nil {
			return err
		}
		if err := ds.addShard(); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of indexed records.
func (ds *DiskStore) Len() int {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return len(ds.index)
}

// Close syncs the active shard to stable storage and closes every shard
// file, returning the first error. Closing a closed store does nothing.
func (ds *DiskStore) Close() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	var first error
	if n := len(ds.shards); n > 0 {
		first = ds.shards[n-1].Sync()
	}
	for _, f := range ds.shards {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	ds.shards = nil
	return first
}

// recordVersion tags the record encoding; bump on layout changes so old
// shards decode (or are rejected) deliberately rather than silently.
const recordVersion = 1

// appendRecord encodes a record onto e. All strings are inline (no
// interner), so the encoding is self-contained per frame.
func appendRecord(e *binfmt.Encoder, r *Record) {
	e.Byte(recordVersion)
	e.Byte(byte(r.Status))
	e.String(r.Log)
	e.String(r.DiagText)
	e.String(r.Strategy)
	e.Uvarint(uint64(r.Runs))
	e.Uvarint(uint64(len(r.FailedAsserts)))
	for _, a := range r.FailedAsserts {
		e.String(a)
	}
	e.Uvarint(uint64(len(r.VacuousAsserts)))
	for _, a := range r.VacuousAsserts {
		e.String(a)
	}
	e.Bool(r.Counterexample != nil)
	if cx := r.Counterexample; cx != nil {
		e.Uvarint(uint64(len(cx.Inputs)))
		for _, in := range cx.Inputs {
			e.String(in.Name)
			e.Uvarint(uint64(in.Width))
		}
		e.Uvarint(uint64(len(cx.Rows)))
		for _, row := range cx.Rows {
			for _, v := range row {
				e.Uvarint(v)
			}
		}
	}
}

// decodeRecord decodes one record payload. Zero-length slices decode to
// nil so a decoded record is deep-equal (and JSON-identical) to the one
// encoded.
func decodeRecord(payload []byte) (Record, error) {
	d := binfmt.NewDecoder(payload)
	var r Record
	if v := d.Byte(); d.Err() == nil && v != recordVersion {
		return r, fmt.Errorf("%w: record version %d (want %d)", binfmt.ErrCorrupt, v, recordVersion)
	}
	st := d.Byte()
	if d.Err() == nil && int(st) >= len(statusNames) {
		return r, fmt.Errorf("%w: status byte %d out of range", binfmt.ErrCorrupt, st)
	}
	r.Status = Status(st)
	r.Log = d.String()
	r.DiagText = d.String()
	r.Strategy = d.String()
	r.Runs = int(d.Uvarint())
	if n := d.Uvarint(); d.Err() == nil && n > 0 {
		r.FailedAsserts = make([]string, n)
		for i := range r.FailedAsserts {
			r.FailedAsserts[i] = d.String()
		}
	}
	if n := d.Uvarint(); d.Err() == nil && n > 0 {
		r.VacuousAsserts = make([]string, n)
		for i := range r.VacuousAsserts {
			r.VacuousAsserts[i] = d.String()
		}
	}
	if d.Bool() {
		cx := &Stimulus{}
		if n := d.Uvarint(); d.Err() == nil && n > 0 {
			cx.Inputs = make([]StimulusInput, n)
			for i := range cx.Inputs {
				cx.Inputs[i].Name = d.String()
				cx.Inputs[i].Width = int(d.Uvarint())
			}
		}
		if n := d.Uvarint(); d.Err() == nil && n > 0 {
			cx.Rows = make([][]uint64, n)
			for i := range cx.Rows {
				row := make([]uint64, len(cx.Inputs))
				for j := range row {
					row[j] = d.Uvarint()
				}
				cx.Rows[i] = row
			}
		}
		r.Counterexample = cx
	}
	if err := d.Err(); err != nil {
		return Record{}, err
	}
	if d.Remaining() != 0 {
		return Record{}, fmt.Errorf("%w: %d trailing bytes after record", binfmt.ErrCorrupt, d.Remaining())
	}
	return r, nil
}
