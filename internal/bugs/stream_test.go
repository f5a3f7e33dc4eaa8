package bugs

import (
	"iter"
	"slices"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/verilog"
)

// eagerEnumerate is the list-building enumeration the streams replaced,
// kept as their oracle: it clones, applies and diffs every site up front
// and returns all mutants at once.
func eagerEnumerate(golden *verilog.Module, limit int, collect func(*verilog.Module) []mutator) []Mutation {
	goldenSrc := verilog.Print(golden)
	probe := collect(verilog.CloneModule(golden))
	n := len(probe)
	if limit > 0 && n > limit {
		n = limit
	}
	var out []Mutation
	for i := 0; i < n; i++ {
		clone := verilog.CloneModule(golden)
		muts := collect(clone)
		if i >= len(muts) {
			break
		}
		mu := muts[i]
		mu.apply()
		lineNo, goldenLine, buggyLine, nDiff := diffLines(goldenSrc, verilog.Print(clone))
		if nDiff != 1 {
			continue
		}
		out = append(out, Mutation{Mutant: clone, Syn: mu.syn, IsCond: mu.cond, Description: mu.desc,
			LineNo: lineNo, BuggyLine: buggyLine, GoldenLine: goldenLine, Affected: mu.aff})
	}
	return out
}

// eagerEnumerateHier is the list-building hierarchical enumeration the
// streams replaced, kept as their oracle.
func eagerEnumerateHier(set *verilog.SourceSet, limit int) []Mutation {
	top, err := set.Top()
	if err != nil || top == nil {
		return nil
	}
	children := childPorts{}
	var childMods []*verilog.Module
	for _, m := range set.Modules {
		if m != top {
			children[m.Name] = m.Ports
			childMods = append(childMods, m)
		}
	}
	goldenSrc := verilog.PrintSet(set)
	probe := collectHier(verilog.CloneModule(top), children)
	n := len(probe)
	if limit > 0 && n > limit {
		n = limit
	}
	var out []Mutation
	for i := 0; i < n; i++ {
		clone := verilog.CloneModule(top)
		muts := collectHier(clone, children)
		if i >= len(muts) {
			break
		}
		mu := muts[i]
		mu.apply()
		mutSet := &verilog.SourceSet{Modules: append(append([]*verilog.Module{}, childMods...), clone)}
		lineNo, goldenLine, buggyLine, nDiff := diffLines(goldenSrc, verilog.PrintSet(mutSet))
		if nDiff != 1 {
			continue
		}
		out = append(out, Mutation{Mutant: clone, Syn: mu.syn, IsCond: mu.cond, Description: mu.desc,
			LineNo: lineNo, BuggyLine: buggyLine, GoldenLine: goldenLine, Affected: mu.aff})
	}
	return out
}

// TestStreamMatchesEagerEnumeration checks, over every catalog blueprint
// and every bug class, that the streamed mutants are the eagerly
// enumerated ones: same order, same labels, same line diff and the same
// printed blueprint. The classic class runs at the pipeline's default
// per-bin cap. The text each stream yields beside a mutant must be the
// mutant printed alone, or the whole printed set for the hierarchical
// classes and for flat blueprints, where the two coincide.
func TestStreamMatchesEagerEnumeration(t *testing.T) {
	type class struct {
		name   string
		want   []Mutation
		stream iter.Seq2[Mutation, string]
		set    bool // the stream prints the whole set
	}
	binCaps := [...]int{64, 32, 14, 10, 8} // the augmentation pipeline's defaults
	for b := range (corpus.CatalogSource{}).Blueprints() {
		limit := binCaps[corpus.BinIndex(b.LineCount())]
		widths := signalWidths(b.Module)
		classic := func(m *verilog.Module) []mutator { return collect(m, widths) }
		classes := []class{
			{"classic", eagerEnumerate(b.Module, limit, classic), Stream(b.Module, limit), false},
			{"reset", eagerEnumerate(b.Module, 0, collectResets), StreamResets(b.Module), false},
		}
		if len(b.Children) > 0 {
			classes = append(classes, class{"hier", eagerEnumerateHier(b.Set(b.Module), limit), StreamHier(b.Set(b.Module), limit), true})
		}
		for _, c := range classes {
			i := 0
			for got, src := range c.stream {
				if i >= len(c.want) {
					t.Errorf("%s/%s: stream yields more than the %d eager mutants", b.Name(), c.name, len(c.want))
					break
				}
				want := c.want[i]
				if got.Syn != want.Syn || got.IsCond != want.IsCond || got.Description != want.Description ||
					got.LineNo != want.LineNo || got.BuggyLine != want.BuggyLine ||
					got.GoldenLine != want.GoldenLine || !slices.Equal(got.Affected, want.Affected) {
					t.Errorf("%s/%s mutant %d: streamed %+v, eager %+v", b.Name(), c.name, i, got, want)
				}
				full := b.SourceWith(got.Mutant)
				if full != b.SourceWith(want.Mutant) {
					t.Errorf("%s/%s mutant %d: printed blueprint differs from the eager mutant's", b.Name(), c.name, i)
				}
				printed := verilog.Print(got.Mutant)
				if c.set || len(b.Children) == 0 {
					printed = full
				}
				if src != printed {
					t.Errorf("%s/%s mutant %d: yielded text is not the printed mutant", b.Name(), c.name, i)
				}
				i++
			}
			if i != len(c.want) {
				t.Errorf("%s/%s: stream yields %d mutants, eager %d", b.Name(), c.name, i, len(c.want))
			}
		}
	}
}

// TestStreamClonesAreIndependent checks that a consumer may keep or
// mutate a yielded mutant without disturbing the ones after it, and that
// stopping early yields a prefix.
func TestStreamClonesAreIndependent(t *testing.T) {
	golden := corpus.Counter(4, 9).Module
	want := Enumerate(golden, 0)
	var got []Mutation
	for mu := range Stream(golden, 0) {
		got = append(got, mu)
		mu.Mutant.Items = nil // vandalise the yielded clone
		if len(got) == 5 {
			break
		}
	}
	if len(got) != 5 {
		t.Fatalf("early stop kept %d mutants, want 5", len(got))
	}
	for i, mu := range got {
		if mu.Description != want[i].Description || mu.LineNo != want[i].LineNo {
			t.Errorf("mutant %d: %q at line %d, want %q at line %d", i, mu.Description, mu.LineNo, want[i].Description, want[i].LineNo)
		}
	}
	if !strings.Contains(verilog.Print(golden), "always") {
		t.Error("vandalising yielded clones changed the golden module")
	}
}
