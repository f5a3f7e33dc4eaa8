package corpus

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/formal"
	"repro/internal/verilog"
)

// TestBlueprintsGolden is the master validation: every blueprint must parse
// from its own printed source, elaborate without errors, and pass bounded
// model checking with every assertion exercised (non-vacuous).
func TestBlueprintsGolden(t *testing.T) {
	for _, b := range Catalog() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			src := b.Source()
			d, diags, err := compile.Compile(src)
			if err != nil {
				t.Fatalf("parse: %v\n%s", err, src)
			}
			if compile.HasErrors(diags) {
				t.Fatalf("elaborate:\n%s", compile.FormatDiags(diags))
			}
			if len(d.Asserts) == 0 {
				t.Fatal("blueprint has no assertions")
			}
			res, err := formal.Check(context.Background(), d, formal.Options{Seed: 42, Depth: b.CheckDepth(20), RandomRuns: 24})
			if err != nil {
				t.Fatalf("formal: %v", err)
			}
			if !res.Pass {
				t.Fatalf("golden design violates its own assertions:\n%s\n%s", res.Log, res.Trace.Format(nil))
			}
			if len(res.VacuousAsserts) > 0 {
				t.Errorf("vacuous assertions: %v", res.VacuousAsserts)
			}
		})
	}
}

// TestCatalogDeterministic checks that each catalog constructor is a pure
// function of nothing: building every blueprint up front, building them in
// reverse order, streaming them one at a time through CatalogSource and
// collecting them with Catalog all give the same names and sources in the
// same order.
func TestCatalogDeterministic(t *testing.T) {
	eager := make([]*Blueprint, len(catalog))
	for i, build := range catalog {
		eager[i] = build()
	}
	reversed := make([]*Blueprint, len(catalog))
	for i := len(catalog) - 1; i >= 0; i-- {
		reversed[i] = catalog[i]()
	}
	var streamed []*Blueprint
	for b := range (CatalogSource{}).Blueprints() {
		streamed = append(streamed, b)
	}
	if CatalogSize() != len(eager) {
		t.Fatalf("CatalogSize() = %d, want %d", CatalogSize(), len(eager))
	}
	for what, got := range map[string][]*Blueprint{"reversed": reversed, "streamed": streamed, "Catalog()": Catalog()} {
		if len(got) != len(eager) {
			t.Fatalf("%s: %d blueprints, want %d", what, len(got), len(eager))
		}
		for i := range eager {
			if got[i].Name() != eager[i].Name() || got[i].Source() != eager[i].Source() {
				t.Errorf("%s: blueprint %d is %s, want %s with the same source", what, i, got[i].Name(), eager[i].Name())
			}
		}
	}
}

func TestCatalogUniqueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Catalog() {
		if seen[b.Name()] {
			t.Errorf("duplicate module name %q", b.Name())
		}
		seen[b.Name()] = true
	}
}

func TestCatalogCoversAllBins(t *testing.T) {
	counts := make([]int, len(LengthBins)+1)
	for _, b := range Catalog() {
		counts[BinIndex(b.LineCount())]++
	}
	for i, c := range counts {
		if c < 3 {
			t.Errorf("bin %s has only %d blueprints, want >= 3", BinLabels()[i], c)
		}
	}
}

func TestBinLabel(t *testing.T) {
	tests := []struct {
		lines int
		want  string
	}{
		{1, "(0, 50]"},
		{50, "(0, 50]"},
		{51, "(50, 100]"},
		{100, "(50, 100]"},
		{150, "(100, 150]"},
		{200, "(150, 200]"},
		{201, "(200, +inf)"},
		{1000, "(200, +inf)"},
	}
	for _, tt := range tests {
		if got := BinLabel(tt.lines); got != tt.want {
			t.Errorf("BinLabel(%d) = %q, want %q", tt.lines, got, tt.want)
		}
	}
}

func TestBrokenSourcesActuallyBroken(t *testing.T) {
	good := Counter(4, 9)
	for _, e := range BreakSyntax(good.Name(), good.Source()) {
		if _, err := verilog.Parse(e.Source); err == nil {
			// A few breakages may still parse (e.g. removed begin with a
			// single statement); they must at least fail elaboration.
			_, diags, cerr := compile.Compile(e.Source)
			if cerr == nil && !compile.HasErrors(diags) {
				t.Errorf("%s: still compiles after syntax breakage", e.Name)
			}
		}
	}
	for _, e := range BreakSemantics(good.Name(), good.Source()) {
		_, diags, err := compile.Compile(e.Source)
		if err != nil {
			continue // degraded to syntax error, acceptable
		}
		if !compile.HasErrors(diags) {
			t.Errorf("%s: still elaborates after semantic breakage", e.Name)
		}
	}
}

// eagerDefectiveCorpus builds the defective population from a fully built
// catalog, all at once: the oracle for the streamed DefectiveCorpus.
func eagerDefectiveCorpus() []RawEntry {
	var out []RawEntry
	blueprints := Catalog()
	for i, b := range blueprints {
		if i%3 == 0 {
			out = append(out, BreakSyntax(b.Name(), b.Source())...)
		}
		if i%5 == 0 {
			out = append(out, BreakSemantics(b.Name(), b.Source())...)
		}
	}
	out = append(out, TrivialModules()...)
	out = append(out, IncompleteFragments()...)
	for i := 0; i < len(blueprints); i += 7 {
		out = append(out, RawEntry{Name: blueprints[i].Name(), Source: blueprints[i].Source(), Truth: DefectDuplicate})
	}
	return out
}

func TestRawCorpusComposition(t *testing.T) {
	want := eagerDefectiveCorpus()
	got := slices.Collect(DefectiveCorpus())
	if !slices.Equal(got, want) {
		t.Fatalf("streamed defective corpus differs from the eager one: %d vs %d entries", len(got), len(want))
	}
	// A consumer that stops early sees a prefix of the same stream.
	for _, n := range []int{0, 1, 7, len(want) - 1} {
		var prefix []RawEntry
		for e := range DefectiveCorpus() {
			if len(prefix) == n {
				break
			}
			prefix = append(prefix, e)
		}
		if !slices.Equal(prefix, want[:n]) {
			t.Errorf("stream stopped after %d entries is not the eager prefix", n)
		}
	}

	raw := RawCorpus()
	goldens := len(raw) - len(want)
	if goldens != CatalogSize() || !slices.Equal(raw[goldens:], want) {
		t.Fatalf("raw corpus is not the catalog followed by the defective corpus")
	}
	for i, b := range Catalog() {
		if raw[i] != (RawEntry{Name: b.Name(), Source: b.Source(), Truth: DefectNone}) {
			t.Errorf("raw entry %d is %s, want golden %s", i, raw[i].Name, b.Name())
		}
	}
	counts := map[DefectKind]int{}
	for _, e := range raw {
		counts[e.Truth]++
	}
	if counts[DefectNone] == 0 || counts[DefectSyntax] == 0 ||
		counts[DefectTrivial] == 0 || counts[DefectIncomplete] == 0 ||
		counts[DefectDuplicate] == 0 {
		t.Errorf("raw corpus missing defect classes: %v", counts)
	}
	if counts[DefectSyntax] < 10 {
		t.Errorf("too few syntax-broken entries: %d", counts[DefectSyntax])
	}
}

func TestByName(t *testing.T) {
	b := ByName("counter_w4_m9")
	if b == nil || b.Family != "counter" {
		t.Fatalf("ByName failed: %+v", b)
	}
	if ByName("nonexistent") != nil {
		t.Error("ByName returned a blueprint for a bogus name")
	}
}

func TestDescriptionsAndDocs(t *testing.T) {
	for _, b := range Catalog() {
		if len(b.Description) < 40 {
			t.Errorf("%s: description too short", b.Name())
		}
		if len(b.PortDocs) < 2 {
			t.Errorf("%s: missing port docs", b.Name())
		}
		for _, pd := range b.PortDocs {
			if b.Module.FindPort(pd.Name) == nil {
				t.Errorf("%s: port doc for unknown port %q", b.Name(), pd.Name)
			}
		}
	}
}

func TestPadToBin(t *testing.T) {
	b := padToBin(Counter(4, 9), 80)
	if got := b.LineCount(); got < 80 {
		t.Errorf("padded blueprint has %d lines, want >= 80", got)
	}
	if !strings.Contains(b.Source(), "implementation note") {
		t.Error("padding comments missing")
	}
	// Padded source must still compile and verify.
	d, diags, err := compile.Compile(b.Source())
	if err != nil || compile.HasErrors(diags) {
		t.Fatalf("padded source broken: %v %s", err, compile.FormatDiags(diags))
	}
	res, err := formal.Check(context.Background(), d, formal.Options{Seed: 1})
	if err != nil || !res.Pass {
		t.Fatalf("padded design fails: %v", err)
	}
}
