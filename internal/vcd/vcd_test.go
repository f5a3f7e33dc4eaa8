package vcd

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/sim"
)

// column drives the input name alone, one value per cycle.
func column(d *compile.Design, name string, vals ...uint64) sim.VecStimulus {
	st := sim.VecStimulus{Inputs: []*compile.Signal{d.Signals[name]}}
	for _, v := range vals {
		st.Rows = append(st.Rows, []uint64{v})
	}
	return st
}

func traceFixture(t *testing.T) *sim.Trace {
	t.Helper()
	src := `
module m (
    input clk,
    input [3:0] d,
    output reg [3:0] q,
    output one
);
    assign one = q[0];
    always @(posedge clk) q <= d;
endmodule
`
	d, diags, err := compile.Compile(src)
	if err != nil || compile.HasErrors(diags) {
		t.Fatal("fixture broken")
	}
	tr, err := sim.RunVecCtx(context.Background(), d, column(d, "d", 5, 5, 9, 9), sim.TwoState)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestWriteStructure(t *testing.T) {
	tr := traceFixture(t)
	out, err := Strings(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"$timescale 1ns $end",
		"$scope module m $end",
		"$var wire 4", // input d
		"$var reg 4",  // q
		"$var wire 1",
		"$enddefinitions $end",
		"$dumpvars",
		"#0",
		"b0101 ", // d = 5, zero-padded to the declared 4-bit width
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q:\n%s", want, out)
		}
	}
	// The synthetic clock must toggle: both phases appear.
	if !strings.Contains(out, "#1\n0") {
		t.Error("missing clock low phase")
	}
}

func TestChangeOnlySemantics(t *testing.T) {
	tr := traceFixture(t)
	out, err := Strings(tr, Options{Signals: []string{"d"}})
	if err != nil {
		t.Fatal(err)
	}
	// d is 5,5,9,9: the value line b0101 must appear exactly once (initial
	// dump) and b1001 exactly once (the change), not once per cycle.
	if got := strings.Count(out, "b0101 "); got != 1 {
		t.Errorf("b0101 appears %d times, want 1", got)
	}
	if got := strings.Count(out, "b1001 "); got != 1 {
		t.Errorf("b1001 appears %d times, want 1", got)
	}
}

func TestSignalSubsetAndErrors(t *testing.T) {
	tr := traceFixture(t)
	out, err := Strings(tr, Options{Signals: []string{"q"}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, " d ") {
		t.Error("subset dump leaked other signals")
	}
	if _, err := Strings(tr, Options{Signals: []string{"ghost"}}); err == nil {
		t.Error("unknown signal accepted")
	}
	if _, err := Strings(nil, Options{}); err == nil {
		t.Error("nil trace accepted")
	}
}

func TestIdentifiersDistinct(t *testing.T) {
	ids := identifiers(500)
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate identifier %q", id)
		}
		seen[id] = true
		if id == "" {
			t.Fatal("empty identifier")
		}
	}
}

func TestDeterministic(t *testing.T) {
	tr := traceFixture(t)
	a, _ := Strings(tr, Options{})
	b, _ := Strings(tr, Options{})
	if a != b {
		t.Error("VCD output not deterministic")
	}
}

// TestVectorValuesPaddedToDeclaredWidth round-trips the dump: every b-value
// line must carry exactly as many binary digits as its $var declares.
// Strict viewers left-align unpadded values against the MSB, so b101 in a
// 4-bit variable would display as 10 instead of 5.
func TestVectorValuesPaddedToDeclaredWidth(t *testing.T) {
	tr := traceFixture(t)
	out, err := Strings(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Collect declared widths per identifier code from the $var lines.
	widths := map[string]int{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 5 && f[0] == "$var" {
			w, err := strconv.Atoi(f[2])
			if err != nil {
				t.Fatalf("bad $var width in %q", line)
			}
			widths[f[3]] = w
		}
	}
	if len(widths) == 0 {
		t.Fatal("no $var declarations found")
	}
	checked := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "b") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("malformed vector value line %q", line)
		}
		digits := strings.TrimPrefix(f[0], "b")
		w, ok := widths[f[1]]
		if !ok {
			t.Fatalf("value for undeclared identifier in %q", line)
		}
		if len(digits) != w {
			t.Errorf("value %q has %d digits, $var declares %d", line, len(digits), w)
		}
		if v, err := strconv.ParseUint(digits, 2, 64); err != nil {
			t.Errorf("unparseable binary value %q", line)
		} else if v > (uint64(1)<<uint(w))-1 {
			t.Errorf("value %q exceeds its declared width", line)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no vector value lines found")
	}
}

// TestWriteUnknownSignal covers the error path cmd/solve hits when asked
// to dump a signal the design does not declare: Write must reject the
// request by name and produce no partial output.
func TestWriteUnknownSignal(t *testing.T) {
	tr := traceFixture(t)
	var sb strings.Builder
	err := Write(&sb, tr, Options{Signals: []string{"q", "ghost"}})
	if err == nil {
		t.Fatal("unknown signal accepted")
	}
	if !strings.Contains(err.Error(), "ghost") {
		t.Errorf("error %q does not name the unknown signal", err)
	}
	if sb.Len() != 0 {
		t.Errorf("partial VCD written despite error: %q", sb.String())
	}
}

// TestWriteHierarchicalScopes checks that flattened dotted names become
// nested $scope blocks: the instance path turns into module scopes and
// only leaf segments are declared as $var identifiers.
func TestWriteHierarchicalScopes(t *testing.T) {
	src := `
module counter (input clk, input rst_n, output reg [3:0] count);
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) count <= 0;
        else count <= count + 1;
    end
endmodule

module pair (input clk, input rst_n, output [3:0] a, output [3:0] b);
    counter u0 (.clk(clk), .rst_n(rst_n), .count(a));
    counter u1 (.clk(clk), .rst_n(rst_n), .count(b));
endmodule
`
	d, diags, err := compile.Compile(src)
	if err != nil || compile.HasErrors(diags) {
		t.Fatalf("fixture broken: %v %v", err, diags)
	}
	tr, err := sim.RunVecCtx(context.Background(), d, column(d, "rst_n", 1, 1), sim.TwoState)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Strings(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"$scope module pair $end",
		"$scope module u0 $end",
		"$scope module u1 $end",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "u0.count") {
		t.Errorf("dotted identifier leaked into $var declarations:\n%s", out)
	}
	// Both instance counters declare a leaf "count" var in their own scope.
	if got := strings.Count(out, " count [3:0] $end"); got != 2 {
		t.Errorf("count $var declared %d times, want 2:\n%s", got, out)
	}
	if got, want := strings.Count(out, "$scope"), strings.Count(out, "$upscope"); got != want {
		t.Errorf("%d $scope vs %d $upscope", got, want)
	}
}
