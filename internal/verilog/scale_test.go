package verilog_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/testenv"
	"repro/internal/verilog"
)

// TestParseAllocs guards the pull parser: parsing the largest catalog
// source allocates little more than its AST. A token slice for the whole
// input costs about five bytes per source byte.
func TestParseAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector changes allocation counts")
	}
	var src, name string
	for bp := range (corpus.CatalogSource{}).Blueprints() {
		if s := bp.Source(); len(s) > len(src) {
			src, name = s, bp.Name()
		}
	}
	parse := func() {
		if _, err := verilog.ParseSet(src); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	parse()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		parse()
	}
	runtime.ReadMemStats(&after)
	perParse := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%s: %d source bytes, %d bytes allocated per parse", name, len(src), perParse)
	if limit := 2 * uint64(len(src)); perParse > limit {
		t.Errorf("parsing %s allocates %d bytes, want at most %d (two per source byte)", name, perParse, limit)
	}
}

// deepSource is a module whose one assignment nests depth "~(" levels.
func deepSource(depth int) string {
	return fmt.Sprintf("module deep (input [7:0] a, output [7:0] y);\n    assign y = %sa%s;\nendmodule\n",
		strings.Repeat("~(", depth), strings.Repeat(")", depth))
}

// TestPrintLinearInDepth guards the printer against quadratic output
// building: printing an expression nested 4x deeper takes about 4x the
// time. A string per level, concatenated, takes 12x to 15x.
func TestPrintLinearInDepth(t *testing.T) {
	testenv.CheckLinear(t, "printing", 4000, func(depth int) func() {
		m, err := verilog.Parse(deepSource(depth))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(verilog.Print(m), strings.Repeat("~(", depth-1)+"~a"+strings.Repeat(")", depth-1)) {
			t.Fatalf("depth %d does not print its expression back", depth)
		}
		return func() { verilog.Print(m) }
	})
}

// TestParseLinearInDepth guards the pull parser against work that grows
// with the nesting depth at each level: parsing an expression nested 4x
// deeper, or a left-associative chain 4x longer, takes about 4x the time.
func TestParseLinearInDepth(t *testing.T) {
	parse := func(src string) func() {
		return func() {
			if _, err := verilog.Parse(src); err != nil {
				t.Fatal(err)
			}
		}
	}
	testenv.CheckLinear(t, "parsing nested ~(", 2000, func(depth int) func() {
		return parse(deepSource(depth))
	})
	testenv.CheckLinear(t, "parsing an a+a chain", 2000, func(depth int) func() {
		return parse(fmt.Sprintf("module chain (input [7:0] a, output [7:0] y);\n    assign y = a%s;\nendmodule\n",
			strings.Repeat("+a", depth)))
	})
}
