package corpus

import (
	"context"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/formal"
)

// TestGeneratorEmitsDistinctValidDesigns is the generator's master check:
// every sampled design has a unique name and content hash, compiles, and
// passes its own assertions within its declared bound.
func TestGeneratorEmitsDistinctValidDesigns(t *testing.T) {
	const n = 48
	g := NewGenerator(GenConfig{Seed: 7, N: n})
	names := map[string]bool{}
	hashes := map[[32]byte]bool{}
	families := map[string]bool{}
	emitted := 0
	for b := range g.Blueprints() {
		emitted++
		if names[b.Name()] {
			t.Errorf("duplicate module name %q", b.Name())
		}
		names[b.Name()] = true
		h := b.ContentHash()
		if hashes[h] {
			t.Errorf("%s: duplicate content", b.Name())
		}
		hashes[h] = true
		families[b.Family] = true

		src := b.Source()
		d, diags, err := compile.Compile(src)
		if err != nil || compile.HasErrors(diags) {
			t.Fatalf("%s: does not compile: %v %s\n%s", b.Name(), err, compile.FormatDiags(diags), src)
		}
		res, err := formal.Check(context.Background(), d, formal.Options{Seed: 1, Depth: b.CheckDepth(16), RandomRuns: 12})
		if err != nil {
			t.Fatalf("%s: formal: %v", b.Name(), err)
		}
		if !res.Pass {
			t.Errorf("%s: violates its own assertions:\n%s", b.Name(), res.Log)
		}
		if len(b.PortDocs) < 2 || len(b.Description) < 40 {
			t.Errorf("%s: missing spec metadata", b.Name())
		}
	}
	if emitted != n {
		t.Errorf("emitted %d designs, want %d", emitted, n)
	}
	if len(families) < 8 {
		t.Errorf("only %d families sampled in %d designs", len(families), n)
	}
}

// TestGeneratorDeterministic: same config, same stream, across separate
// iterations of the same generator and a freshly constructed one.
func TestGeneratorDeterministic(t *testing.T) {
	cfg := GenConfig{Seed: 99, N: 24}
	collect := func(g *Generator) []string {
		var out []string
		for b := range g.Blueprints() {
			out = append(out, b.Source())
		}
		return out
	}
	g := NewGenerator(cfg)
	a, b, c := collect(g), collect(g), collect(NewGenerator(cfg))
	if len(a) != cfg.N {
		t.Fatalf("emitted %d, want %d", len(a), cfg.N)
	}
	for i := range a {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatalf("stream diverges at design %d", i)
		}
	}
}

// TestGeneratorExcludeAndAccept: excluded hashes are never emitted, nor
// handed to Accept, and rejected candidates are resampled, still reaching
// N.
func TestGeneratorExcludeAndAccept(t *testing.T) {
	probe := NewGenerator(GenConfig{Seed: 5, N: 4})
	var exclude [][32]byte
	excluded := map[[32]byte]bool{}
	first := ""
	for b := range probe.Blueprints() {
		if first == "" {
			first = b.Name()
		}
		exclude = append(exclude, b.ContentHash())
		excluded[b.ContentHash()] = true
	}
	rejected := 0
	g := NewGenerator(GenConfig{
		Seed:    5,
		N:       8,
		Exclude: exclude,
		Accept: func(b *Blueprint) bool {
			if excluded[b.ContentHash()] {
				t.Errorf("excluded design %s handed to Accept", b.Name())
			}
			if b.Family == "pipeline" {
				rejected++
				return false
			}
			return true
		},
	})
	n := 0
	for b := range g.Blueprints() {
		n++
		if b.Name() == first {
			t.Errorf("excluded design %s emitted", first)
		}
		if b.Family == "pipeline" {
			t.Errorf("rejected family emitted: %s", b.Name())
		}
	}
	if n != 8 {
		t.Errorf("emitted %d, want 8", n)
	}
}

// TestResetVariants: each encoding rewrite yields a compiling design that
// passes its assertions, with the reset reported under the new convention.
func TestResetVariants(t *testing.T) {
	cases := []struct {
		tag        string
		activeHigh bool
		sync       bool
		wantPort   string
		wantLow    bool
	}{
		{"_rh", true, false, "rst", false},
		{"_rs", false, true, "rst_n", true},
		{"_rhs", true, true, "rst", false},
	}
	for _, tc := range cases {
		b := Counter(4, 9)
		if !applyResetVariant(b, tc.activeHigh, tc.sync) {
			t.Fatalf("%s: variant not applied", tc.tag)
		}
		if !strings.HasSuffix(b.Name(), tc.tag) {
			t.Errorf("name %q lacks tag %q", b.Name(), tc.tag)
		}
		d, diags, err := compile.Compile(b.Source())
		if err != nil || compile.HasErrors(diags) {
			t.Fatalf("%s: compile: %v %s\n%s", tc.tag, err, compile.FormatDiags(diags), b.Source())
		}
		rst := d.Reset()
		if !rst.Present || rst.Name != tc.wantPort || rst.ActiveLow != tc.wantLow {
			t.Errorf("%s: reset detected as %+v", tc.tag, rst)
		}
		res, err := formal.Check(context.Background(), d, formal.Options{Seed: 3, Depth: b.CheckDepth(16), RandomRuns: 12})
		if err != nil || !res.Pass {
			t.Errorf("%s: variant fails its assertions: %v\n%s", tc.tag, err, res.Log)
		}
		if tc.activeHigh && strings.Contains(b.Source(), "rst_n") {
			t.Errorf("%s: rst_n survives polarity flip:\n%s", tc.tag, b.Source())
		}
		if tc.sync && strings.Contains(b.Source(), "negedge") {
			t.Errorf("%s: reset still in sensitivity list:\n%s", tc.tag, b.Source())
		}
	}
	// No-reset designs are left untouched.
	p := Parity(8)
	if applyResetVariant(p, true, true) {
		t.Error("variant applied to reset-free design")
	}
}

// TestSourcesCompose: the catalog source matches Catalog() and Multi
// concatenates in order.
func TestSourcesCompose(t *testing.T) {
	var cat []string
	for b := range (CatalogSource{}).Blueprints() {
		cat = append(cat, b.Name())
	}
	want := Catalog()
	if len(cat) != len(want) {
		t.Fatalf("catalog source yields %d, want %d", len(cat), len(want))
	}
	extra := FuncSource("extra", func() []*Blueprint {
		return []*Blueprint{Counter(7, 99), Parity(11)}
	})
	m := Multi(CatalogSource{}, extra)
	if m.Name() != "catalog+extra" {
		t.Errorf("multi name %q", m.Name())
	}
	var all []string
	for b := range m.Blueprints() {
		all = append(all, b.Name())
	}
	if len(all) != len(want)+2 {
		t.Fatalf("multi yields %d, want %d", len(all), len(want)+2)
	}
	if all[len(all)-1] != "parity_w11" || all[0] != want[0].Name() {
		t.Errorf("multi order wrong: first %q last %q", all[0], all[len(all)-1])
	}
	// Early termination must not panic and must stop the stream.
	n := 0
	for range m.Blueprints() {
		n++
		if n == 3 {
			break
		}
	}
	if n != 3 {
		t.Errorf("early break consumed %d", n)
	}
}
