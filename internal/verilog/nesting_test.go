package verilog_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/fuzz"
	"repro/internal/lint"
	"repro/internal/verilog"
)

// nestedParens is a module whose assignment reads a through k
// parentheses: the right-hand side is one nesting level and each
// parenthesis one more, and a sits at line 2, column 16+k.
func nestedParens(k int) string {
	return fmt.Sprintf("module m (input [7:0] a, output [7:0] y);\n    assign y = %sa%s;\nendmodule\n",
		strings.Repeat("(", k), strings.Repeat(")", k))
}

// nestedBlocks is a module whose always block nests k begin-end blocks
// around one assignment, which sits at line 2, column 17+6k.
func nestedBlocks(k int) string {
	return fmt.Sprintf("module m (input a, output reg y);\n    always @(*) %sy = a;%s\nendmodule\n",
		strings.Repeat("begin ", k), strings.Repeat(" end", k))
}

// chain is a module whose assignment reads a through a left-associative
// chain of k additions, a+a+…+a: the right-hand side is one nesting level
// and each + one more, and the i-th + sits at line 2, column 15+2i.
func chain(k int) string {
	return fmt.Sprintf("module m (input [7:0] a, output [7:0] y);\n    assign y = a%s;\nendmodule\n",
		strings.Repeat("+a", k))
}

// indexChain is chain with k bit-selects, a[0][0]…[0], in place of the
// additions; the i-th [ sits at line 2, column 14+3i.
func indexChain(k int) string {
	return fmt.Sprintf("module m (input [7:0] a, output [7:0] y);\n    assign y = a%s;\nendmodule\n",
		strings.Repeat("[0]", k))
}

// TestNestingLimit: a source nested exactly to the bound parses; one level
// more fails with a positioned *ParseError at the first token of the level
// past the bound, for expressions and statements alike.
func TestNestingLimit(t *testing.T) {
	for _, tc := range []struct {
		name    string
		at, bad string
		pos     verilog.Pos
	}{
		{"parentheses", nestedParens(verilog.MaxNesting - 1), nestedParens(verilog.MaxNesting),
			verilog.Pos{Line: 2, Col: 16 + verilog.MaxNesting}},
		// The innermost assignment is one level more than its blocks, and
		// its right-hand side one more again.
		{"blocks", nestedBlocks(verilog.MaxNesting - 2), nestedBlocks(verilog.MaxNesting),
			verilog.Pos{Line: 2, Col: 17 + 6*verilog.MaxNesting}},
	} {
		if depth, err := verilog.Nesting(tc.at); err != nil || depth != verilog.MaxNesting {
			t.Errorf("%s at the bound: depth %d, err %v; want depth %d and no error", tc.name, depth, err, verilog.MaxNesting)
		}
		_, err := verilog.ParseSet(tc.bad)
		var pe *verilog.ParseError
		if !errors.As(err, &pe) || pe.Pos != tc.pos || !strings.Contains(pe.Msg, "nesting") {
			t.Errorf("%s past the bound: %v; want a nesting *ParseError at %v", tc.name, err, tc.pos)
		}
	}
	// A chain builds an AST as deep as it is long, so each operator is one
	// level even though the parser folds the chain in a loop.
	for _, tc := range []struct {
		name    string
		at, bad string
		pos     verilog.Pos
	}{
		{"additions", chain(verilog.MaxNesting - 1), chain(verilog.MaxNesting),
			verilog.Pos{Line: 2, Col: 15 + 2*verilog.MaxNesting}},
		{"bit-selects", indexChain(verilog.MaxNesting - 1), indexChain(verilog.MaxNesting),
			verilog.Pos{Line: 2, Col: 14 + 3*verilog.MaxNesting}},
	} {
		if depth, err := verilog.Nesting(tc.at); err != nil || depth != verilog.MaxNesting {
			t.Errorf("%s at the bound: depth %d, err %v; want depth %d and no error", tc.name, depth, err, verilog.MaxNesting)
		}
		_, err := verilog.ParseSet(tc.bad)
		var pe *verilog.ParseError
		if !errors.As(err, &pe) || pe.Pos != tc.pos || !strings.Contains(pe.Msg, "nesting") {
			t.Errorf("%s past the bound: %v; want a nesting *ParseError at %v", tc.name, err, tc.pos)
		}
	}
	// Chains inside parentheses add up: three groups of 30,000 additions,
	// each far below the bound, nest about 90,000 levels.
	grouped := "a"
	for range 3 {
		grouped = "(" + grouped + strings.Repeat("+a", 30000) + ")"
	}
	src := fmt.Sprintf("module m (input [7:0] a, output [7:0] y);\n    assign y = %s;\nendmodule\n", grouped)
	var pe *verilog.ParseError
	if _, err := verilog.ParseSet(src); !errors.As(err, &pe) || !strings.Contains(pe.Msg, "nesting") {
		t.Errorf("grouped chains past the bound: %v; want a nesting *ParseError", err)
	}
	// About a million parentheses once overflowed the goroutine stack.
	if _, err := verilog.Parse(nestedParens(1 << 20)); err == nil {
		t.Error("a million nested parentheses parsed")
	}
}

// TestChainAtLimit: a 1 MiB chain of additions, as large as a cmd/serve
// request body may be, fails cleanly at the parser, and a chain to the
// bound prints, reparses to the same text, compiles and lints.
func TestChainAtLimit(t *testing.T) {
	big := chain(1 << 19)
	if len(big) < 1<<20 {
		t.Fatalf("chain is %d bytes, want at least 1 MiB", len(big))
	}
	var pe *verilog.ParseError
	if _, err := verilog.ParseSet(big); !errors.As(err, &pe) || !strings.Contains(pe.Msg, "nesting") {
		t.Fatalf("1 MiB chain: %v; want a nesting *ParseError", err)
	}
	if _, _, err := compile.Compile(big); err == nil {
		t.Fatal("1 MiB chain compiled")
	}

	src := chain(verilog.MaxNesting - 1)
	m, err := verilog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	printed := verilog.Print(m)
	m2, err := verilog.Parse(printed)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if again := verilog.Print(m2); again != printed {
		t.Error("printing the reparsed chain changed its text")
	}
	if _, diags, err := compile.Compile(src); err != nil || compile.HasErrors(diags) {
		t.Fatalf("compile: %v %s", err, compile.FormatDiags(diags))
	}
	if _, err := lint.AnalyzeSource(src); err != nil {
		t.Fatalf("lint: %v", err)
	}
}

// TestNestingFarBelowLimit: the catalog and generated programs nest a few
// dozen levels at most, far below the bound.
func TestNestingFarBelowLimit(t *testing.T) {
	deepest, where := 0, ""
	check := func(name, src string) {
		depth, err := verilog.Nesting(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if depth > deepest {
			deepest, where = depth, name
		}
	}
	for _, bp := range corpus.Catalog() {
		check(bp.Name(), bp.Source())
	}
	for seed := int64(0); seed < 200; seed++ {
		check(fmt.Sprintf("generated %d", seed), fuzz.GenerateSource(seed))
		check(fmt.Sprintf("generated x/z %d", seed), fuzz.GenerateSourceXZ(seed))
		check(fmt.Sprintf("generated hierarchy %d", seed), fuzz.GenerateHierSource(seed))
	}
	t.Logf("deepest nesting %d (%s)", deepest, where)
	if deepest > verilog.MaxNesting/256 {
		t.Errorf("%s nests %d levels, not far below the bound %d", where, deepest, verilog.MaxNesting)
	}
}
