package verify

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset/binfmt"
)

func testKey(i int) Key {
	var k Key
	k[0] = byte(i)
	k[1] = byte(i >> 8)
	return k
}

func testRecord(i int) *Record {
	return &Record{
		Status:   StatusAssertFail,
		Log:      fmt.Sprintf("record %d failed", i),
		Strategy: "exhaustive",
		Runs:     i + 1,
		FailedAsserts: []string{
			fmt.Sprintf("p_check_%d", i),
		},
		Counterexample: &Stimulus{
			Inputs: []StimulusInput{{Name: "clk", Width: 1}, {Name: "d", Width: 4}},
			Rows:   [][]uint64{{0, uint64(i)}, {1, uint64(i) + 1}},
		},
	}
}

func TestDiskStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if err := ds.Put(testKey(i), testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Re-putting a key shadows the earlier frame.
	shadow := testRecord(0)
	shadow.Log = "shadowed"
	if err := ds.Put(testKey(0), shadow); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds, err = OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if got := ds.Len(); got != n {
		t.Fatalf("Len() = %d after reopen, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		rec, err := ds.Get(testKey(i))
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			t.Fatalf("record %d missing after reopen", i)
		}
		want := testRecord(i)
		if i == 0 {
			want = shadow
		}
		if a, b := mustJSON(t, rec), mustJSON(t, want); !bytes.Equal(a, b) {
			t.Fatalf("record %d after reopen:\n got %s\nwant %s", i, a, b)
		}
	}
	if miss, err := ds.Get(testKey(99)); err != nil || miss != nil {
		t.Fatalf("Get(absent) = (%v, %v), want (nil, nil)", miss, err)
	}
}

// TestDiskStoreTornTailTruncated is the crash-safety contract: a frame
// half-written when the process died must be truncated away on reopen,
// every earlier frame must survive, and appending must work from the
// truncation point.
func TestDiskStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ds.Put(testKey(i), testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last frame: chop a few bytes off the shard, as a crash
	// mid-append would.
	shard := shardPath(dir, 0)
	info, err := os.Stat(shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(shard, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	ds, err = OpenDiskStore(dir)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	if got := ds.Len(); got != 2 {
		t.Fatalf("Len() = %d after torn-tail reopen, want 2", got)
	}
	for i := 0; i < 2; i++ {
		rec, err := ds.Get(testKey(i))
		if err != nil || rec == nil {
			t.Fatalf("clean-prefix record %d lost: (%v, %v)", i, rec, err)
		}
	}
	if rec, err := ds.Get(testKey(2)); err != nil || rec != nil {
		t.Fatalf("torn record served: (%v, %v), want (nil, nil)", rec, err)
	}

	// Appends continue from the truncated tail and survive another reopen.
	if err := ds.Put(testKey(7), testRecord(7)); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds, err = OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if got := ds.Len(); got != 3 {
		t.Fatalf("Len() = %d after post-truncation append, want 3", got)
	}
	if rec, err := ds.Get(testKey(7)); err != nil || rec == nil {
		t.Fatalf("post-truncation append lost: (%v, %v)", rec, err)
	}
}

func TestDiskStoreTornHeaderResets(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds.Close()
	// A crash during shard creation can leave a partial magic.
	if err := os.Truncate(shardPath(dir, 0), 2); err != nil {
		t.Fatal(err)
	}
	ds, err = OpenDiskStore(dir)
	if err != nil {
		t.Fatalf("reopen after torn header: %v", err)
	}
	defer ds.Close()
	if err := ds.Put(testKey(1), testRecord(1)); err != nil {
		t.Fatal(err)
	}
}

func TestDiskStoreBadMagicIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds.Close()
	if err := os.WriteFile(filepath.Join(dir, "verdicts-00000.bin"), []byte("not a shard, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskStore(dir); !errors.Is(err, binfmt.ErrCorrupt) {
		t.Fatalf("OpenDiskStore over garbage = %v, want ErrCorrupt", err)
	}
}

func TestDiskStoreShardRotation(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds.maxShard = 256 // force rotation quickly
	const n = 20
	for i := 0; i < n; i++ {
		if err := ds.Put(testKey(i), testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(ds.shards) < 2 {
		t.Fatalf("expected rotation past %d bytes, still %d shard(s)", ds.maxShard, len(ds.shards))
	}
	ds.Close()
	ds, err = OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if got := ds.Len(); got != n {
		t.Fatalf("Len() = %d across shards, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if rec, err := ds.Get(testKey(i)); err != nil || rec == nil {
			t.Fatalf("record %d lost across rotation: (%v, %v)", i, rec, err)
		}
	}
}

// TestRecordBinaryJSONRoundTripProperty drives random records through the
// binary codec and requires the decode to be JSON-byte-identical to the
// original — the property that makes the disk tier transparent to every
// consumer of Record's JSON form.
func TestRecordBinaryJSONRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	randStr := func(n int) string {
		b := make([]byte, rng.Intn(n))
		for i := range b {
			b[i] = byte(rng.Intn(256)) // arbitrary bytes, not just ASCII
		}
		return string(b)
	}
	for trial := 0; trial < 500; trial++ {
		rec := Record{
			Status:   Status(rng.Intn(len(statusNames))),
			Log:      randStr(200),
			DiagText: randStr(80),
			Strategy: randStr(20),
			Runs:     rng.Intn(1 << 20),
		}
		for i := rng.Intn(4); i > 0; i-- {
			rec.FailedAsserts = append(rec.FailedAsserts, randStr(24))
		}
		for i := rng.Intn(4); i > 0; i-- {
			rec.VacuousAsserts = append(rec.VacuousAsserts, randStr(24))
		}
		if rng.Intn(2) == 0 {
			cx := &Stimulus{}
			for i := rng.Intn(5); i > 0; i-- {
				cx.Inputs = append(cx.Inputs, StimulusInput{Name: randStr(12), Width: 1 + rng.Intn(64)})
			}
			for r := rng.Intn(6); r > 0; r-- {
				row := make([]uint64, len(cx.Inputs))
				for i := range row {
					row[i] = rng.Uint64()
				}
				cx.Rows = append(cx.Rows, row)
			}
			rec.Counterexample = cx
		}

		enc := binfmt.NewEncoder()
		appendRecord(enc, &rec)
		got, err := decodeRecord(enc.Bytes())
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		a, b := mustJSON(t, &rec), mustJSON(t, &got)
		if !bytes.Equal(a, b) {
			t.Fatalf("trial %d: JSON differs after binary round trip:\n orig %s\n back %s", trial, a, b)
		}
	}
}

func TestDecodeRecordRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	enc := binfmt.NewEncoder()
	appendRecord(enc, testRecord(3))
	clean := enc.Bytes()
	// Truncations must error, never panic or fabricate trailing state.
	for cut := 0; cut < len(clean); cut++ {
		if _, err := decodeRecord(clean[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded cleanly", cut, len(clean))
		}
	}
	// Random bytes must never panic (errors are fine and expected).
	for trial := 0; trial < 200; trial++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		decodeRecord(buf)
	}
	// Trailing bytes after a clean record are corruption.
	if _, err := decodeRecord(append(append([]byte{}, clean...), 0)); !errors.Is(err, binfmt.ErrCorrupt) {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}

// TestDiskStoreUseAfterClose pins the closed-store contract: Get and Put
// after Close return an error wrapping os.ErrClosed instead of panicking,
// and a Service whose store was closed under it (cmd/serve closes the
// store when its shutdown grace expires, while a check may still run)
// computes through.
func TestDiskStoreUseAfterClose(t *testing.T) {
	ds, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Put(testKey(1), testRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2} { // indexed and absent keys
		if rec, err := ds.Get(testKey(k)); !errors.Is(err, os.ErrClosed) || rec != nil {
			t.Fatalf("Get(%d) after Close = (%v, %v), want (nil, os.ErrClosed)", k, rec, err)
		}
	}
	if err := ds.Put(testKey(3), testRecord(3)); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Put after Close = %v, want os.ErrClosed", err)
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}

	svc := New(1)
	svc.SetStore(ds)
	rec, err := svc.CheckRecord(context.Background(), passSrc, nil, Options{Seed: 1, Depth: 8})
	if err != nil || rec.Status != StatusPass {
		t.Fatalf("CheckRecord over a closed store = (%v, %v), want a pass", rec.Status, err)
	}
	if m := svc.Metrics(); m.DiskHits != 0 || m.Misses != 1 {
		t.Fatalf("metrics over a closed store = %+v, want 1 miss and 0 disk hits", m)
	}
}

// TestCheckRecordOnDiskWhenAnswered pins the store's promise: once a
// CheckRecord miss has returned, the record is already in the DiskStore,
// byte-identical in its JSON form, and a fresh Service over the same
// store answers it from disk without computing.
func TestCheckRecordOnDiskWhenAnswered(t *testing.T) {
	ds, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ctx := context.Background()
	for _, src := range []string{passSrc, failSrc, elabErrSrc} {
		opts := Options{Seed: 1, Depth: 8}
		svc := New(2)
		svc.SetStore(ds)
		rec, err := svc.CheckRecord(ctx, src, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		onDisk, err := ds.Get(cacheKey(src, nil, opts))
		if err != nil || onDisk == nil {
			t.Fatalf("record not on disk when its check returned: (%v, %v)", onDisk, err)
		}
		if a, b := mustJSON(t, &rec), mustJSON(t, onDisk); !bytes.Equal(a, b) {
			t.Fatalf("stored record differs from the answer:\n answer %s\n stored %s", a, b)
		}

		fresh := New(2)
		fresh.SetStore(ds)
		again, err := fresh.CheckRecord(ctx, src, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := mustJSON(t, &rec), mustJSON(t, &again); !bytes.Equal(a, b) {
			t.Fatalf("disk answer differs from the computed one:\n computed %s\n disk %s", a, b)
		}
		if m := fresh.Metrics(); m.DiskHits != 1 || m.Misses != 0 {
			t.Fatalf("fresh service metrics = %+v, want 1 disk hit and 0 misses", m)
		}
	}
}

// TestCheckReadsStore pins the one lookup path: Check reads the DiskStore
// before computing, so fresh Services over one store answer a stored key
// from disk, byte-identically, and never append a second frame for it.
func TestCheckReadsStore(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	opts := Options{Seed: 1, Depth: 8}
	var want []byte
	var size int64
	var frames int
	for i := 0; i < 3; i++ {
		svc := New(2)
		svc.SetStore(ds)
		v, err := svc.Check(context.Background(), failSrc, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		gotSize, gotFrames := shardFrames(t, dir)
		if i == 0 {
			want, size, frames = mustJSON(t, &v.Record), gotSize, gotFrames
			if frames != 1 {
				t.Fatalf("store holds %d frames after the first check, want 1", frames)
			}
			continue
		}
		if gotSize != size || gotFrames != frames {
			t.Fatalf("service %d grew the store from %d bytes in %d frames to %d bytes in %d frames",
				i+1, size, frames, gotSize, gotFrames)
		}
		if m := svc.Metrics(); m.DiskHits != 1 || m.Misses != 0 {
			t.Fatalf("service %d metrics = %+v, want 1 disk hit and 0 misses", i+1, m)
		}
		if got := mustJSON(t, &v.Record); !v.Cached || !bytes.Equal(got, want) {
			t.Fatalf("service %d answered cached=%v %s, want the stored %s", i+1, v.Cached, got, want)
		}
	}
}

// shardFrames returns the total size of the store's shard files and the
// number of frames in them.
func shardFrames(t *testing.T, dir string) (int64, int) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "verdicts-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	var size int64
	frames := 0
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		size += int64(len(data))
		for off := binfmt.MagicLen; off < len(data); frames++ {
			_, next, ok := nextFrame(data, off)
			if !ok {
				t.Fatalf("%s: torn frame at %d", name, off)
			}
			off = next
		}
	}
	return size, frames
}

// TestGen2PromoteMovesEntry pins the lookup fix: a previous-generation hit
// must move the entry (not copy it), so len() stays exact and rotation
// cannot resurrect a stale duplicate.
func TestGen2PromoteMovesEntry(t *testing.T) {
	g := newGen2[int](2)
	g.put(testKey(1), 10)
	g.put(testKey(2), 20)
	g.put(testKey(3), 30) // rotates: {1,2} -> prev, {3} -> cur
	if got := g.len(); got != 3 {
		t.Fatalf("len() = %d, want 3", got)
	}
	if v, ok := g.get(testKey(1)); !ok || v != 10 {
		t.Fatalf("get(1) = (%d, %v)", v, ok)
	}
	if got := g.len(); got != 3 {
		t.Fatalf("len() = %d after promotion, want 3 (promotion must not duplicate)", got)
	}
	if _, ok := g.prev[testKey(1)]; ok {
		t.Fatal("promoted key still resident in previous generation")
	}
	// remove with a stale identity must not evict the fresh value.
	g.remove(testKey(1), 99)
	if _, ok := g.get(testKey(1)); !ok {
		t.Fatal("identity-mismatched remove evicted a live entry")
	}
	g.remove(testKey(1), 10)
	if _, ok := g.get(testKey(1)); ok {
		t.Fatal("matching remove left the entry resident")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
