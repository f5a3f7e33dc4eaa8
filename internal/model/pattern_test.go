package model

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/corpus"
)

// TestRenderRoundTrip checks detokenisation fidelity: every statement line
// produced by the printer must survive tokenize -> renderTokens unchanged.
// Pattern-generated fixes rely on this to compare cleanly against golden
// lines.
func TestRenderRoundTrip(t *testing.T) {
	mismatches := 0
	total := 0
	for _, b := range corpus.Catalog() {
		for _, line := range strings.Split(b.Source(), "\n") {
			trimmed := strings.TrimSpace(line)
			if trimmed == "" || !isStatementLine(line) {
				continue
			}
			total++
			toks := tokenizeLine(trimmed)
			surface := make([]string, len(toks))
			for i, tok := range toks {
				surface[i] = tokenText(tok)
			}
			got := renderTokens(surface)
			if got != trimmed {
				mismatches++
				if mismatches <= 5 {
					t.Errorf("render mismatch:\n  in:  %q\n  out: %q", trimmed, got)
				}
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d lines failed round trip", mismatches, total)
	}
	if total < 500 {
		t.Errorf("only %d lines exercised; corpus too small?", total)
	}
}

func TestRenderRoundTripHumanCases(t *testing.T) {
	for _, hc := range corpus.HumanCases() {
		for _, src := range []string{hc.Golden, hc.Buggy} {
			for _, line := range strings.Split(src, "\n") {
				trimmed := strings.TrimSpace(line)
				if trimmed == "" || !isStatementLine(line) {
					continue
				}
				toks := tokenizeLine(trimmed)
				surface := make([]string, len(toks))
				for i, tok := range toks {
					surface[i] = tokenText(tok)
				}
				if got := renderTokens(surface); got != trimmed {
					t.Errorf("%s: render mismatch:\n  in:  %q\n  out: %q", hc.Name, trimmed, got)
				}
			}
		}
	}
}

func TestPatternLearnAndApply(t *testing.T) {
	ps := newPatternStore()
	ps.Learn("else if (!end_cnt) valid_out <= 1;", "else if (end_cnt) valid_out <= 1;", "Op")
	if ps.Len() != 1 {
		t.Fatalf("patterns = %d, want 1", ps.Len())
	}
	// The learned pattern must generalise to a different design's line.
	fixes := lineFixes(ps, "else if (!done) ready <= 1;", nil)
	if len(fixes) != 1 || fixes[0] != "else if (done) ready <= 1;" {
		t.Fatalf("fixes = %v", fixes)
	}
}

// lineFixes returns the whole-line pattern rewrites of line.
func lineFixes(ps *PatternStore, line string, idFills []string) []string {
	var out []string
	for _, f := range ps.line.fixes(line, tokenizeLine(line), idFills) {
		out = append(out, f.fix)
	}
	return out
}

func TestPatternUnboundIdent(t *testing.T) {
	ps := newPatternStore()
	// Var bug: wrong signal; the fix introduces an identifier absent from
	// the buggy line.
	ps.Learn("assign y = wrong;", "assign y = right;", "Var")
	fixes := lineFixes(ps, "assign out = bogus;", []string{"alpha", "beta"})
	if len(fixes) != 2 {
		t.Fatalf("fixes = %v, want 2 (one per fill)", fixes)
	}
	if fixes[0] != "assign out = alpha;" || fixes[1] != "assign out = beta;" {
		t.Fatalf("fixes = %v", fixes)
	}
}

func TestPatternUnboundNumber(t *testing.T) {
	ps := newPatternStore()
	ps.Learn("count <= 4'd9;", "count <= 4'd8;", "Value")
	fixes := lineFixes(ps, "limit <= 4'd5;", nil)
	if len(fixes) == 0 {
		t.Fatal("no fixes")
	}
	found := false
	for _, f := range fixes {
		if f == "limit <= 4'd4;" || f == "limit <= 4'd6;" {
			found = true
		}
	}
	if !found {
		t.Errorf("off-by-one variants missing: %v", fixes)
	}
}

func TestPatternCounts(t *testing.T) {
	ps := newPatternStore()
	for i := 0; i < 3; i++ {
		ps.Learn("a <= b + 1;", "a <= b - 1;", "Op")
	}
	ps.Learn("x <= y & z;", "x <= y | z;", "Op")
	if ps.Len() != 2 {
		t.Fatalf("patterns = %d, want 2", ps.Len())
	}
	if ps.line.order[0].Count != 3 {
		t.Errorf("count = %d, want 3", ps.line.order[0].Count)
	}
	if ps.TotalCount() != 4 {
		t.Errorf("total = %d, want 4", ps.TotalCount())
	}
}

func TestTooManyUnboundRejected(t *testing.T) {
	ps := newPatternStore()
	ps.Learn("assign y = a;", "assign y = b + c;", "Var") // two unbound idents
	if ps.Len() != 0 {
		t.Errorf("unconstrained pattern accepted")
	}
}

func TestNumVariants(t *testing.T) {
	vs := numVariants("4'd9")
	for _, want := range []string{"4'd10", "4'd8"} {
		if !slices.Contains(vs, want) {
			t.Errorf("variants %v missing %s", vs, want)
		}
	}
	vs = numVariants("3")
	if !slices.Contains(vs, "4") || !slices.Contains(vs, "2") {
		t.Errorf("plain decimal variants: %v", vs)
	}
	if got := numVariants(""); len(got) == 0 {
		t.Error("empty seed must yield defaults")
	}
}
