package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset/binfmt"
)

// randString draws a string from a charset that exercises escaping,
// newlines, NULs and multi-byte runes.
func randString(rng *rand.Rand, maxLen int) string {
	alphabet := []string{"a", "z", "0", "7", " ", "\n", "\t", "\"", "\\", "<", "&", "\x00", "é", "✓", "="}
	n := rng.Intn(maxLen)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

// randLogs builds log text mixing the canonical shapes (incl. x/z
// values) with arbitrary junk, so round-trip coverage spans both the
// packed and the fallback paths.
func randLogs(rng *rand.Rand) string {
	if rng.Intn(4) == 0 {
		return randString(rng, 80)
	}
	var sb strings.Builder
	mod, as := "m"+fmt.Sprint(rng.Intn(3)), "a"+fmt.Sprint(rng.Intn(3))
	fmt.Fprintf(&sb, "failed assertion %s.%s at cycle %d\n", mod, as, rng.Intn(40))
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&sb, "  message: %s\n", randString(rng, 20))
	}
	fmt.Fprintf(&sb, "  failing term: q == d (attempt started at cycle %d, %d failing attempts in trace)\n",
		rng.Intn(40), 1+rng.Intn(9))
	fmt.Fprintf(&sb, "  sampled values at cycle %d:", rng.Intn(40))
	for i := 0; i < rng.Intn(5); i++ {
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(&sb, " s%d=%d", i, rng.Uint64()>>uint(rng.Intn(64)))
		case 1:
			fmt.Fprintf(&sb, " s%d=x", i)
		default:
			w := 1 + rng.Intn(16)
			bits := make([]byte, w)
			for j := range bits {
				bits[j] = "01x"[rng.Intn(3)]
			}
			fmt.Fprintf(&sb, " s%d=b%s", i, bits)
		}
	}
	sb.WriteString("\n")
	return sb.String()
}

func randPT(rng *rand.Rand) PTEntry {
	e := PTEntry{
		Name:     "pt" + fmt.Sprint(rng.Intn(100)),
		Code:     randString(rng, 200),
		Spec:     randString(rng, 100),
		Compiles: rng.Intn(2) == 0,
	}
	if !e.Compiles && rng.Intn(2) == 0 {
		e.Analysis = randString(rng, 60)
	}
	return e
}

func randBug(rng *rand.Rand) BugEntry {
	return BugEntry{
		Name:       "bug" + fmt.Sprint(rng.Intn(100)),
		Spec:       "spec" + fmt.Sprint(rng.Intn(4)), // repeats: exercises interning
		BuggyCode:  randString(rng, 200),
		BuggyLine:  randString(rng, 40),
		FixedLine:  "fix" + fmt.Sprint(rng.Intn(6)),
		LineNo:     rng.Intn(200) - 10, // occasionally negative: varint path
		DiffReport: fmt.Sprintf("output q differs at cycle %d: golden=%d mutant=%d", rng.Intn(20), rng.Intn(9), rng.Intn(9)),
	}
}

func randSample(rng *rand.Rand) SVASample {
	s := SVASample{
		ID:         "s" + fmt.Sprint(rng.Intn(1000)),
		Module:     "mod" + fmt.Sprint(rng.Intn(5)),
		Family:     []string{"counter", "fifo", "alu"}[rng.Intn(3)],
		Spec:       "spec" + fmt.Sprint(rng.Intn(5)),
		BuggyCode:  randString(rng, 300),
		GoldenCode: "golden" + fmt.Sprint(rng.Intn(5)),
		Logs:       randLogs(rng),
		LineNo:     rng.Intn(100),
		BuggyLine:  randString(rng, 50),
		FixedLine:  "fixed" + fmt.Sprint(rng.Intn(8)),
		Syn:        []string{"Var", "Value", "Op", "Reset"}[rng.Intn(4)],
		IsCond:     rng.Intn(2) == 0,
		IsDirect:   rng.Intn(2) == 0,
		Lines:      rng.Intn(300),
		CheckDepth: rng.Intn(32),
		Origin:     []string{"machine", "human"}[rng.Intn(2)],
	}
	if rng.Intn(2) == 0 { // optional fields present only sometimes
		s.CoT = randString(rng, 120)
		s.CoTValid = s.CoT != ""
	}
	return s
}

// mustJSON marshals exactly the way the JSON layers do.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBinaryJSONRoundTripProperty is the format's core contract: for
// randomized entries of all three types — x/z-bearing logs, junk
// strings, empty and omitted optional fields — encoding to binary and
// decoding back yields a value that marshals to byte-identical JSON.
func TestBinaryJSONRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var buf bytes.Buffer
	w, err := binfmt.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 400
	var want [][]byte
	for i := 0; i < rounds; i++ {
		var v any
		switch i % 3 {
		case 0:
			v = randPT(rng)
		case 1:
			v = randBug(rng)
		default:
			v = randSample(rng)
		}
		want = append(want, mustJSON(t, v))
		if err := EncodeRecord(w.Record(), v); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Explicit edge cases: all-zero values and empty strings.
	for _, v := range []any{PTEntry{}, BugEntry{}, SVASample{}} {
		want = append(want, mustJSON(t, v))
		if err := EncodeRecord(w.Record(), v); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := binfmt.Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	if err := r.ForEach(func(d *binfmt.Decoder) error {
		got, err := DecodeRecord(d)
		if err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		if g := mustJSON(t, got); !bytes.Equal(g, want[i]) {
			t.Errorf("record %d JSON differs:\n got %s\nwant %s", i, g, want[i])
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("decoded %d of %d records", i, len(want))
	}
}

// TestBinWriterRoundTrip mirrors the JSONL sharded round-trip: entries
// come back in production order via ReadShards (format autodetected)
// at any shard count.
func TestBinWriterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := sampleFixture(17)
	for _, shards := range []int{1, 3, 4, 17, 32} {
		w, err := NewWriter(dir, "sva", "bin", shards)
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
			if got := mustJSON(t, back[i]); !bytes.Equal(got, mustJSON(t, in[i])) {
				t.Fatalf("shards=%d: entry %d differs: %s", shards, i, got)
			}
		}
	}
}

// TestBinWriterDeterministic: the same entry stream produces
// byte-identical binary shards.
func TestBinWriterDeterministic(t *testing.T) {
	in := sampleFixture(11)
	write := func(dir string) {
		w, err := NewWriter(dir, "ds", "bin", 3)
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
		name := fmt.Sprintf("ds-%05d.bin", i)
		ra, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ra, rb) {
			t.Errorf("shard %s differs between identical runs", name)
		}
	}
}

// TestBinReaderRandomAccess: the footer index addresses every record
// directly, in any order, from concurrent goroutines.
func TestBinReaderRandomAccess(t *testing.T) {
	dir := t.TempDir()
	in := sampleFixture(13)
	w, err := NewWriter(dir, "sva", "bin", 1)
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
	r, err := OpenBin(w.Paths()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Count() != len(in) {
		t.Fatalf("Count = %d, want %d", r.Count(), len(in))
	}
	done := make(chan error, len(in))
	for i := len(in) - 1; i >= 0; i-- {
		go func(i int) {
			s, err := BinAt[SVASample](r, i)
			if err != nil {
				done <- err
				return
			}
			if s.ID != in[i].ID {
				done <- fmt.Errorf("record %d: ID %s, want %s", i, s.ID, in[i].ID)
				return
			}
			done <- nil
		}(i)
	}
	for range in {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if _, err := BinAt[PTEntry](r, 0); err == nil {
		t.Error("BinAt with the wrong type did not fail")
	}
}

// TestLoadBinShards: Load autodetects binary shards from the magic.
func TestLoadBinShards(t *testing.T) {
	dir := t.TempDir()
	in := sampleFixture(9)
	w, err := NewWriter(dir, "sva_bug", "bin", 2)
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
	got, err := Load[SVASample](dir, "sva_bug")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("loaded %d, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i].ID != in[i].ID {
			t.Errorf("entry %d is %s, want %s", i, got[i].ID, in[i].ID)
		}
	}
}

// TestLoadRejectsMixedAndCorrupt: a directory mixing shard formats, or
// a binary shard with a damaged magic, fails loudly rather than
// yielding a zero-sample run (the cmd/train regression).
func TestLoadRejectsMixedAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	in := sampleFixture(6)
	jw, err := NewWriter(dir, "sva_bug", "jsonl", 1)
	if err != nil {
		t.Fatal(err)
	}
	// A writer removes its base's other formats, so the bin shard is
	// written elsewhere and moved in beside the jsonl one.
	other := t.TempDir()
	bw, err := NewWriter(other, "sva_bug", "bin", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if err := jw.Write(&in[i]); err != nil {
			t.Fatal(err)
		}
		if err := bw.Write(&in[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(bw.Paths()[0], filepath.Join(dir, "sva_bug-00000.bin")); err != nil {
		t.Fatal(err)
	}
	if _, err := Load[SVASample](dir, "sva_bug"); err == nil || !strings.Contains(err.Error(), "mixes formats") {
		t.Errorf("mixed-format Load: got %v, want mixes-formats error", err)
	}

	// A .bin shard that is not a binfmt file must error, not decode as
	// zero entries.
	corrupt := t.TempDir()
	if err := os.WriteFile(filepath.Join(corrupt, "sva_bug-00000.bin"), []byte("not a shard"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load[SVASample](corrupt, "sva_bug"); err == nil {
		t.Error("Load of a non-binfmt .bin shard did not fail")
	}

	// A truncated binary shard must also fail loudly.
	trunc := t.TempDir()
	w2, err := NewWriter(trunc, "sva_bug", "bin", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if err := w2.Write(&in[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(w2.Paths()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(w2.Paths()[0], raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load[SVASample](trunc, "sva_bug"); err == nil {
		t.Error("Load of a truncated binary shard did not fail")
	}
}

// FuzzBinRecords fuzzes the typed record decoder over arbitrary shard
// bytes: DecodeRecord must error or produce a value, never panic.
func FuzzBinRecords(f *testing.F) {
	var buf bytes.Buffer
	w, err := binfmt.NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		if err := EncodeRecord(w.Record(), randSample(rng)); err != nil {
			f.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			f.Fatal(err)
		}
		if err := EncodeRecord(w.Record(), randPT(rng)); err != nil {
			f.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			f.Fatal(err)
		}
		if err := EncodeRecord(w.Record(), randBug(rng)); err != nil {
			f.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := binfmt.Open(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		_ = r.ForEach(func(d *binfmt.Decoder) error {
			_, _ = DecodeRecord(d)
			return nil
		})
	})
}
