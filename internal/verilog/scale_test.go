package verilog_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

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

// TestPrintLinearInDepth guards the printer against quadratic output
// building: printing an expression nested 4x deeper takes about 4x the
// time. A string per level, concatenated, takes 12x to 15x.
func TestPrintLinearInDepth(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector distorts timings")
	}
	const n, trials = 4000, 7
	module := func(depth int) *verilog.Module {
		src := fmt.Sprintf("module deep (input [7:0] a, output [7:0] y);\n    assign y = %sa%s;\nendmodule\n",
			strings.Repeat("~(", depth), strings.Repeat(")", depth))
		m, err := verilog.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(verilog.Print(m), strings.Repeat("~(", depth-1)+"~a"+strings.Repeat(")", depth-1)) {
			t.Fatalf("depth %d does not print its expression back", depth)
		}
		return m
	}
	timePrint := func(m *verilog.Module) time.Duration {
		start := time.Now()
		verilog.Print(m)
		return time.Since(start)
	}
	small, large := module(n), module(4*n)
	timePrint(large) // grow the goroutine stack before timing
	var ratios []float64
	for len(ratios) < 3 {
		var tSmall, tLarge time.Duration
		for i := 0; i < trials; i++ {
			if el := timePrint(small); i == 0 || el < tSmall {
				tSmall = el
			}
			if el := timePrint(large); i == 0 || el < tLarge {
				tLarge = el
			}
		}
		t.Logf("depth %d: %v, depth %d: %v", n, tSmall, 4*n, tLarge)
		ratios = append(ratios, float64(tLarge)/float64(tSmall))
		if ratios[len(ratios)-1] < 8 {
			return
		}
	}
	t.Errorf("printing at depth %d took %.1fx the time at depth %d in each of three measurements (%.1f); want < 8x (linear is 4x)",
		4*n, ratios[0], n, ratios)
}
