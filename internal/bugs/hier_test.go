package bugs_test

import (
	"context"
	"testing"

	"repro/internal/bugs"
	"repro/internal/corpus"
	"repro/internal/formal"
	"repro/internal/verify"
)

// TestHierClassesEnumerable pins the hierarchical taxonomy: every
// hierarchical corpus family yields port-miswire and parameter mutants,
// and the two-domain family additionally yields CDC mutants — while flat
// single-module blueprints yield none (EnumerateHier needs a set).
func TestHierClassesEnumerable(t *testing.T) {
	counts := map[string]map[bugs.SynClass]int{}
	for _, b := range corpus.Catalog() {
		if len(b.Children) == 0 {
			continue
		}
		byClass := map[bugs.SynClass]int{}
		for _, mu := range bugs.EnumerateHier(b.Set(b.Module), 0) {
			byClass[mu.Syn]++
		}
		counts[b.Family] = byClass
	}
	for _, fam := range []string{"hier_fifo", "banked_rf", "cdc_cross"} {
		if counts[fam] == nil {
			t.Fatalf("no hierarchical blueprints in family %s", fam)
		}
	}
	for fam, byClass := range counts {
		if byClass[bugs.SynPort] == 0 {
			t.Errorf("%s: no SynPort mutants", fam)
		}
		if fam != "cdc_cross" && byClass[bugs.SynParam] == 0 {
			t.Errorf("%s: no SynParam mutants", fam)
		}
	}
	if counts["cdc_cross"][bugs.SynCdc] == 0 {
		t.Error("cdc_cross: no SynCdc mutants — the two-domain class is unreachable")
	}
	if counts["hier_fifo"][bugs.SynCdc] != 0 {
		t.Error("hier_fifo: SynCdc mutants on a single-domain design")
	}
}

// TestHierClassesDetected validates the acceptance bar for the new
// classes: every compiling hierarchical mutant of the corpus families is
// caught dynamically — its own assertions fail under FourState bounded
// checking, or the behavioural diff against the golden separates them.
// (None of these classes is statically detectable; lint sees well-formed
// RTL that computes the wrong thing.) The golden compiles through
// verify.Compile and the checks go through Run, which both return the
// compiled designs formal.Differ needs.
func TestHierClassesDetected(t *testing.T) {
	svc := verify.Default()
	for _, b := range corpus.Catalog() {
		if len(b.Children) == 0 {
			continue
		}
		depth := b.CheckDepth(16)
		opts := verify.Options{Seed: 99, Depth: depth, FourState: true}
		gv := verify.Compile(b.Source())
		if !gv.Passed() {
			t.Fatalf("%s: golden does not compile: %s", b.Name(), gv.Log)
		}
		detected, compiled := 0, 0
		for _, mu := range bugs.EnumerateHier(b.Set(b.Module), 0) {
			src := b.SourceWith(mu.Mutant)
			v, err := svc.Run(context.Background(), src, nil, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", b.Name(), mu.Description, err)
			}
			if v.Status == verify.StatusCompileError {
				continue
			}
			compiled++
			if v.Status == verify.StatusAssertFail {
				detected++
				continue
			}
			// Assertions survived: the mutant must still behave differently.
			diff, _, err := formal.Differ(context.Background(), gv.Design, v.Design, formal.Options{Seed: 99, Depth: depth})
			if err != nil {
				t.Fatalf("%s %s: differ: %v", b.Name(), mu.Description, err)
			}
			if diff {
				detected++
			} else {
				t.Logf("%s: undetected mutant: %s", b.Name(), mu.Description)
			}
		}
		if compiled == 0 {
			t.Errorf("%s: no compiling hierarchical mutants", b.Name())
		}
		if detected == 0 {
			t.Errorf("%s: no hierarchical mutant detected (%d compiled)", b.Name(), compiled)
		}
		t.Logf("%s: %d/%d hierarchical mutants detected", b.Name(), detected, compiled)
	}
}
