package corpus

import (
	"fmt"
	"iter"
	"slices"
	"strings"
)

// catalog lists the constructors of the golden blueprints in catalog
// order, spanning the five code-length bins of Table II. Each constructor
// builds a fresh AST, so consumers build one blueprint at a time and only
// when they reach it.
var catalog = [...]func() *Blueprint{
	// --- (0, 50] ---
	func() *Blueprint { return Counter(4, 9) },
	func() *Blueprint { return Counter(4, 15) },
	func() *Blueprint { return Counter(3, 5) },
	func() *Blueprint { return Counter(6, 49) },
	func() *Blueprint { return Counter(5, 29) },
	func() *Blueprint { return Counter(8, 23) },
	func() *Blueprint { return EdgeDetect() },
	func() *Blueprint { return Parity(8) },
	func() *Blueprint { return Parity(16) },
	func() *Blueprint { return ClkDiv(4, 2) },
	func() *Blueprint { return ClkDiv(6, 3) },
	func() *Blueprint { return ClkDiv(10, 4) },
	func() *Blueprint { return PWM(4) },
	func() *Blueprint { return PWM(6) },
	func() *Blueprint { return Gray(4) },
	func() *Blueprint { return Gray(5) },
	func() *Blueprint { return MinMax(4) },
	func() *Blueprint { return MinMax(8) },
	func() *Blueprint { return OneHotRotate(4) },
	func() *Blueprint { return OneHotRotate(6) },
	func() *Blueprint { return LFSR(4, 0x9) },
	func() *Blueprint { return LFSR(5, 0x14) },
	func() *Blueprint { return ShiftReg(3) },

	// --- (50, 100] ---
	func() *Blueprint { return SatAdd(4) },
	func() *Blueprint { return SatAdd(8) },
	func() *Blueprint { return Comparator(4) },
	func() *Blueprint { return Comparator(8) },
	func() *Blueprint { return Accu(8, 2) },
	func() *Blueprint { return Accu(4, 2) },
	func() *Blueprint { return Accu(8, 3) },
	func() *Blueprint { return ShiftReg(8) },
	func() *Blueprint { return ShiftReg(12) },
	func() *Blueprint { return FIFOFlags(3, 2) },
	func() *Blueprint { return FIFOFlags(4, 3) },
	func() *Blueprint { return FIFOFlags(7, 3) },
	func() *Blueprint { return Handshake(2) },
	func() *Blueprint { return Handshake(3) },
	func() *Blueprint { return Handshake(5) },
	func() *Blueprint { return Mux(4, 2) },
	func() *Blueprint { return Mux(4, 4) },
	func() *Blueprint { return FSMDetect([]int{1, 0, 1}) },
	func() *Blueprint { return FSMDetect([]int{1, 1, 0, 1}) },
	func() *Blueprint { return VendingFSM() },
	func() *Blueprint { return Debouncer(3) },
	func() *Blueprint { return Debouncer(5) },
	func() *Blueprint { return CRC(4, 0x3) },
	func() *Blueprint { return CRC(8, 0x07) },
	func() *Blueprint { return UARTTx(4) },
	func() *Blueprint { return UARTTx(8) },
	func() *Blueprint { return SeqMultiplier(3) },
	func() *Blueprint { return SeqMultiplier(4) },
	func() *Blueprint { return RoundRobinN(3) },
	func() *Blueprint { return RoundRobinN(4) },

	// --- (50, 100] --- (continued)
	func() *Blueprint { return FSMDetect([]int{1, 0, 1, 1, 0}) },
	func() *Blueprint { return FSMDetect([]int{0, 1, 1, 0, 1, 1}) },
	func() *Blueprint { return Mux(8, 2) },
	func() *Blueprint { return ALU(4, 4) },
	func() *Blueprint { return ALU(8, 6) },
	func() *Blueprint { return RegFile(4, 4) },
	func() *Blueprint { return RegFile(6, 4) },
	func() *Blueprint { return Pipeline(10, 8) },
	func() *Blueprint { return Pipeline(15, 8) },

	// --- (100, 150] ---
	func() *Blueprint { return padToBin(Pipeline(12, 8), 101) },
	func() *Blueprint { return ALU(8, 8) },
	func() *Blueprint { return RegFile(8, 4) },
	func() *Blueprint { return Mux(16, 2) },
	func() *Blueprint { return Pipeline(24, 8) },
	func() *Blueprint { return RegFile(12, 8) },

	// --- (150, 200] ---
	func() *Blueprint { return padToBin(System(8, 4, 500), 151) },
	func() *Blueprint { return Pipeline(30, 16) },
	func() *Blueprint { return RegFile(16, 4) },
	func() *Blueprint { return padToBin(Pipeline(20, 8), 170) },
	func() *Blueprint { return padToBin(RegFile(10, 8), 160) },

	// --- (200, +inf) ---
	func() *Blueprint { return padToBin(System(8, 8, 900), 201) },
	func() *Blueprint { return padToBin(ALU(16, 8), 201) },
	func() *Blueprint { return RegFile(20, 4) },
	func() *Blueprint { return Mux(32, 2) },
	func() *Blueprint { return padToBin(Pipeline(36, 16), 205) },

	// --- hierarchical (multi-module; bins by whole-set line count) ---
	func() *Blueprint { return HierFIFO(2) },
	func() *Blueprint { return HierFIFO(3) },
	func() *Blueprint { return BankedRegFile(4) },
	func() *Blueprint { return BankedRegFile(8) },
	func() *Blueprint { return CDCCross() },
}

// CatalogSize returns the number of catalog blueprints without building
// any of them.
func CatalogSize() int { return len(catalog) }

// Catalog returns every golden blueprint in catalog order. Each call
// builds fresh ASTs, so callers may mutate the results freely. Consumers
// that visit the blueprints one at a time should range over
// CatalogSource instead, which holds only the blueprint in hand.
func Catalog() []*Blueprint {
	out := make([]*Blueprint, 0, len(catalog))
	for b := range (CatalogSource{}).Blueprints() {
		out = append(out, b)
	}
	return out
}

// LengthBins are the code-length intervals of Table II. Bin i covers
// (LengthBins[i-1], LengthBins[i]] with an implicit 0 on the left and +inf
// on the right.
var LengthBins = []int{50, 100, 150, 200}

// BinLabel names the Table II length interval for a line count.
func BinLabel(lines int) string {
	prev := 0
	for _, hi := range LengthBins {
		if lines <= hi {
			return fmt.Sprintf("(%d, %d]", prev, hi)
		}
		prev = hi
	}
	return fmt.Sprintf("(%d, +inf)", prev)
}

// BinIndex returns the 0-based Table II bin index for a line count.
func BinIndex(lines int) int {
	for i, hi := range LengthBins {
		if lines <= hi {
			return i
		}
	}
	return len(LengthBins)
}

// BinLabels lists the bin labels in order.
func BinLabels() []string {
	labels := make([]string, 0, len(LengthBins)+1)
	prev := 0
	for _, hi := range LengthBins {
		labels = append(labels, fmt.Sprintf("(%d, %d]", prev, hi))
		prev = hi
	}
	return append(labels, fmt.Sprintf("(%d, +inf)", prev))
}

// ---------------------------------------------------------------------------
// Defective and degenerate sources for Stage 1 of the pipeline.
// ---------------------------------------------------------------------------

// DefectKind classifies a raw corpus entry for Stage-1 filtering.
type DefectKind int

// Defect kinds.
const (
	DefectNone       DefectKind = iota // clean, compilable module
	DefectSyntax                       // fails the compiler front end
	DefectSemantic                     // parses but fails elaboration
	DefectIncomplete                   // lacks module/endmodule (filtered before compile)
	DefectTrivial                      // no functional logic (filtered)
	DefectDuplicate                    // exact duplicate of an earlier entry
)

var defectNames = [...]string{"none", "syntax", "semantic", "incomplete", "trivial", "duplicate"}

// String names the defect kind.
func (k DefectKind) String() string { return defectNames[k] }

// RawEntry is one entry of the unfiltered corpus: source text plus the
// ground-truth defect label (used only by tests; the pipeline rediscovers
// the label itself).
type RawEntry struct {
	Name   string
	Source string
	Truth  DefectKind
}

// BreakSyntax derives deterministic syntax-broken variants from a good
// source, mimicking the non-compilable share of the paper's corpus.
func BreakSyntax(name, src string) []RawEntry {
	var out []RawEntry
	add := func(suffix, broken string) {
		out = append(out, RawEntry{Name: name + "_" + suffix, Source: broken, Truth: DefectSyntax})
	}
	if i := strings.Index(src, ";"); i >= 0 {
		add("nosemi", src[:i]+src[i+1:])
	}
	if i := strings.Index(src, "begin"); i >= 0 {
		add("nobegin", src[:i]+src[i+5:])
	}
	add("truncated", src[:len(src)*2/3])
	add("badkw", strings.Replace(src, "endmodule", "endmodul", 1))
	if i := strings.Index(src, "assign"); i >= 0 {
		add("noassign", strings.Replace(src, "assign", "assign =", 1))
	}
	return out
}

// BreakSemantics derives variants that parse but fail elaboration.
func BreakSemantics(name, src string) []RawEntry {
	var out []RawEntry
	add := func(suffix, broken string) {
		out = append(out, RawEntry{Name: name + "_" + suffix, Source: broken, Truth: DefectSemantic})
	}
	// Undeclared identifier: rename the first wire/reg declaration away.
	for _, kw := range []string{"wire ", "reg "} {
		if i := strings.Index(src, "    "+kw); i >= 0 {
			line := src[i : i+strings.IndexByte(src[i:], '\n')]
			add("undeclared", strings.Replace(src, line+"\n", "", 1))
			break
		}
	}
	return out
}

// TrivialModules returns degenerate modules with no functional logic, which
// Stage 1 must filter out.
func TrivialModules() []RawEntry {
	return []RawEntry{
		{
			Name: "trivial_const",
			Source: "module trivial_const (\n    output y\n);\n" +
				"    assign y = 1'b0;\nendmodule\n",
			Truth: DefectTrivial,
		},
		{
			Name: "trivial_feed",
			Source: "module trivial_feed (\n    input a,\n    output y\n);\n" +
				"    assign y = a;\nendmodule\n",
			Truth: DefectTrivial,
		},
		{
			Name:   "trivial_empty",
			Source: "module trivial_empty (\n    input a\n);\nendmodule\n",
			Truth:  DefectTrivial,
		},
	}
}

// IncompleteFragments returns sources lacking module/endmodule structure.
func IncompleteFragments() []RawEntry {
	return []RawEntry{
		{Name: "frag_no_module", Source: "wire x;\nassign x = 1'b1;\n", Truth: DefectIncomplete},
		{Name: "frag_no_end", Source: "module frag_no_end (input a);\n    wire w;\n", Truth: DefectIncomplete},
		{Name: "frag_comment_only", Source: "// placeholder file\n", Truth: DefectIncomplete},
	}
}

// RawCorpus assembles the full unfiltered population: every golden
// blueprint of the catalog plus the defective population. This is the
// fixed-catalog form of what Stage 1 consumes; the streaming pipeline
// instead takes goldens from a Source and defectives from
// DefectiveCorpus.
func RawCorpus() []RawEntry {
	var out []RawEntry
	for b := range (CatalogSource{}).Blueprints() {
		out = append(out, RawEntry{Name: b.Name(), Source: b.Source(), Truth: DefectNone})
	}
	return slices.AppendSeq(out, DefectiveCorpus())
}

// DefectiveCorpus streams the deliberately defective population Stage 1
// must filter: syntax/semantic breakages of a catalog subset, trivial
// modules, incomplete fragments and duplicates of catalog sources. It
// builds only the catalog blueprints it breaks or duplicates, one at a
// time, and keeps only the duplicates' text until the end of the stream.
func DefectiveCorpus() iter.Seq[RawEntry] {
	return func(yield func(RawEntry) bool) {
		yieldAll := func(es []RawEntry) bool {
			for _, e := range es {
				if !yield(e) {
					return false
				}
			}
			return true
		}
		// Break roughly every third blueprint to populate Verilog-PT, and
		// re-emit every seventh source under the same name as a duplicate.
		var dups []RawEntry
		for i, build := range catalog {
			if i%3 != 0 && i%5 != 0 && i%7 != 0 {
				continue
			}
			b := build()
			name, src := b.Name(), b.Source()
			if i%3 == 0 && !yieldAll(BreakSyntax(name, src)) {
				return
			}
			if i%5 == 0 && !yieldAll(BreakSemantics(name, src)) {
				return
			}
			if i%7 == 0 {
				dups = append(dups, RawEntry{Name: name, Source: src, Truth: DefectDuplicate})
			}
		}
		for _, es := range [][]RawEntry{TrivialModules(), IncompleteFragments(), dups} {
			if !yieldAll(es) {
				return
			}
		}
	}
}

// ByName returns the blueprint with the given module name, or nil.
func ByName(name string) *Blueprint {
	for b := range (CatalogSource{}).Blueprints() {
		if b.Name() == name {
			return b
		}
	}
	return nil
}
