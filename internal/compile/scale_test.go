package compile

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/testenv"
	"repro/internal/verilog"
)

// TestElaborateLinearInDepth guards elaboration against work that grows
// with the nesting depth at each level: elaborating an expression nested
// 4x deeper takes about 4x the time.
func TestElaborateLinearInDepth(t *testing.T) {
	testenv.CheckLinear(t, "elaborating", 4000, func(depth int) func() {
		src := fmt.Sprintf("module deep (input [7:0] a, output [7:0] y);\n    assign y = %sa%s;\nendmodule\n",
			strings.Repeat("~(", depth), strings.Repeat(")", depth))
		m, err := verilog.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			if _, diags := Elaborate(m); HasErrors(diags) {
				t.Fatalf("depth %d:\n%s", depth, FormatDiags(diags))
			}
		}
	})
}
