package sim

import (
	"context"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/verilog"
)

// plannableModule is the fixture every plannability row splices its body
// into: one clock, a multi-bit input and register, a dynamic index source
// and single-bit signals for the packed lane paths.
const plannableModule = `module m (
    input clk,
    input [7:0] v,
    input [2:0] i,
    input a,
    output reg [7:0] q,
    output reg b,
    output [7:0] y
);
BODY
endmodule
`

// plannability is one engine-acceptance row: which lowerings accept the
// construct. lanes2/lanes4 are the lane plans themselves; ok2/ok4 are
// LanesOK, which also rejects multi-clock designs.
type plannability struct {
	plan, plan4, lanes2, lanes4, ok2, ok4 bool
}

var (
	acceptAll = plannability{true, true, true, true, true, true}
	rejectAll = plannability{}
)

// TestPlannabilityTable pins the boundary between internal/compile and the
// planner: every construct the parser produces either compiles and lowers
// on every engine or is a compile error with a positioned diagnostic, so no
// design that compiles falls between the two. A diag row pins the whole
// diagnostic log of its source. A want row pins which of PlanOf, the
// four-state plan, the two lane plans and LanesOK accept the construct;
// a row with a plan in both value domains must also simulate, in each, as
// the reference interpreter does; those that reject something are
// constructs the parser and elaborator
// never produce (an unknown identifier, a call with no arguments, a
// non-identifier store base), spliced into an elaborated design's AST
// before its plan is built. Three reasons are unreachable and have no row:
// an unknown statement kind (verilog.Stmt is sealed) and unknown unary or
// binary operators (the operator sets are closed enums every lowering
// covers). The body's first line is line 11.
func TestPlannabilityTable(t *testing.T) {
	assign0 := func(f func(as *verilog.AssignItem)) func(*compile.Design) {
		return func(d *compile.Design) { f(d.Assigns[0]) }
	}
	num := func(v uint64) verilog.Expr { return &verilog.Number{Width: 8, Value: v} }
	rows := []struct {
		name   string
		body   string
		mutate func(*compile.Design)
		want   plannability
		diag   string
	}{
		// Plannable controls.
		{name: "control", body: `
    assign y = v + 8'd1;
    always @(posedge clk) q <= v ^ y;
    ap: assert property (@(posedge clk) q == $past(v));`, want: acceptAll},
		{name: "control statements and targets", body: `
    assign y = {v[3:0], {4{a}}};
    always @* begin
        case (i)
            3'd0: b = a;
            3'd1: b = ~a;
            default: b = 1'b0;
        endcase
    end
    always @(posedge clk) begin
        if (a) q[i] <= b; else {q[7:4], q[3:0]} <= v;
    end`, want: acceptAll},
		{name: "parameter-only bounds, count and depth", body: `
    localparam P = 6;
    assign y = {v[P+1:P&4], {(P|1)-5{a}}};
    always @(posedge clk) q[P^1:2] <= v;
    ap: assert property (@(posedge clk) y == $past(v, P>>1));`, want: acceptAll},
		{name: "x-bearing slice bound", body: `
    assign y = v[2'b1x:0];`,
			diag: "11:18: error: part-select bound has x/z bits\n"},
		{name: "x-bearing slice bound in assignment target", body: `
    always @(posedge clk) q[2'b1x:0] <= v;`,
			diag: "11:29: error: part-select bound has x/z bits\n"},

		// Assignment targets.
		{name: "assignment to unknown signal", body: `
    assign y = v;`, mutate: assign0(func(as *verilog.AssignItem) {
			as.LHS = &verilog.Ident{Name: "nosuch"}
		}), want: rejectAll},
		{name: "assignment to parameter", body: `
    parameter MAX = 3;
    always @(posedge clk) if (a) MAX <= 1; else q <= v;`,
			diag: "12:34: error: cannot assign to parameter MAX\n"},
		{name: "assignment to localparam", body: `
    localparam S0 = 0;
    assign {y[7:1], S0} = v;`,
			diag: "12:21: error: cannot assign to parameter S0\n"},
		{name: "unsupported index target base", body: `
    assign y = v;`, mutate: assign0(func(as *verilog.AssignItem) {
			as.LHS = &verilog.Index{X: num(1), Idx: num(0)}
		}), want: rejectAll},
		{name: "nested select target", body: `
    always @(posedge clk) q[3:0][1] <= a;`,
			diag: "11:28: error: invalid assignment target\n"},
		{name: "unsupported slice target base", body: `
    assign y = v;`, mutate: assign0(func(as *verilog.AssignItem) {
			as.LHS = &verilog.Slice{X: num(1), Hi: num(3), Lo: num(0)}
		}), want: rejectAll},
		{name: "unsupported assignment target kind", body: `
    assign y = v;`, mutate: assign0(func(as *verilog.AssignItem) {
			as.LHS = num(1)
		}), want: rejectAll},
		{name: "dynamic slice bounds in assignment target", body: `
    always @(posedge clk) q[i:0] <= v;`,
			diag: "11:29: error: non-constant part-select bound: references signal i\n"},
		{name: "invalid slice target", body: `
    always @(posedge clk) q[0:3] <= v;`,
			diag: "11:28: error: reversed part-select [0:3]\n"},
		{name: "slice target bound shifted by 64", body: `
    always @(posedge clk) q[1 << 64 : 1] <= v;`,
			diag: "11:28: error: reversed part-select [0:1]\n"},
		{name: "slice target bound inverted in 32 bits", body: `
    always @(posedge clk) q[~0 : 4294967296] <= v;`,
			diag: "11:28: error: reversed part-select [4294967295:4294967296]\n"},
		{name: "dynamic width in concat assignment target", body: `
    always @(posedge clk) {q[0:3], b} <= v;`,
			diag: "11:29: error: reversed part-select [0:3]\n"},

		// Expressions.
		{name: "unknown signal", body: `
    assign y = v;`, mutate: assign0(func(as *verilog.AssignItem) {
			as.RHS = &verilog.Ident{Name: "nosuch"}
		}), want: rejectAll},
		{name: "unknown expression kind", body: `
    assign y = v;`, mutate: assign0(func(as *verilog.AssignItem) {
			as.RHS = nil
		}), want: rejectAll},
		{name: "string literal", body: `
    assign y = "v";`,
			diag: "11:16: error: string literal in expression context\n"},
		{name: "system task in an expression", body: `
    assign y = $time;`,
			diag: "11:16: error: unsupported system function $time\n"},
		{name: "dynamic slice bounds", body: `
    assign y = v[i:0];`,
			diag: "11:18: error: non-constant part-select bound: references signal i\n"},
		{name: "slice bound with a call", body: `
    assign y = v[$countones(v):0];`,
			diag: "11:18: error: non-constant part-select bound: calls $countones\n"},
		{name: "reversed constant slice read", body: `
    assign y = v[0:3];`,
			diag: "11:17: error: reversed part-select [0:3]\n"},
		{name: "slice bound dividing by zero", body: `
    assign y = v[8/0:0];`,
			diag: "11:19: error: part-select bound divides by zero\n"},
		{name: "concatenated slice bound", body: `
    localparam P = 6;
    assign y = v[{P}:0];`, want: acceptAll},
		{name: "slice bound that does not fold", body: `
    localparam P = 6;
    assign y = v[P[2]:0];`,
			diag: "12:19: error: part-select bound does not fold to a constant\n"},
		{name: "dynamic width in concat", body: `
    assign y = {v[0:3], a};`,
			diag: "11:18: error: reversed part-select [0:3]\n"},
		{name: "dynamic replication count", body: `
    assign y = {i{a}};`,
			diag: "11:17: error: non-constant replication count: references signal i\n"},
		{name: "x-bearing replication count", body: `
    assign y = {2'b1x{a}};`,
			diag: "11:17: error: replication count has x/z bits\n"},
		{name: "dynamic width in replication", body: `
    assign y = {2{v[0:3]}};`,
			diag: "11:20: error: reversed part-select [0:3]\n"},
		{name: "dynamic operand width (unary)", body: `
    assign y = ~v[0:3];`,
			diag: "11:18: error: reversed part-select [0:3]\n"},
		{name: "dynamic operand width (xnor)", body: `
    assign y = v ~^ v[0:3];`,
			diag: "11:22: error: reversed part-select [0:3]\n"},
		{name: "dynamic operand width (arithmetic shift)", body: `
    assign y = v[0:3] >>> 1;`,
			diag: "11:17: error: reversed part-select [0:3]\n"},
		{name: "dynamic operand width ($countones)", body: `
    assign y = $countones(v[0:3]);`,
			diag: "11:28: error: reversed part-select [0:3]\n"},
		{name: "dynamic operand width ($isunknown)", body: `
    assign y = $isunknown(v[0:3]);`,
			diag: "11:28: error: reversed part-select [0:3]\n"},
		{name: "system function without arguments", body: `
    assign y = v;`, mutate: assign0(func(as *verilog.AssignItem) {
			as.RHS = &verilog.Call{Name: "$countones"}
		}), want: rejectAll},
		{name: "unknown system function", body: `
    assign y = v;`, mutate: assign0(func(as *verilog.AssignItem) {
			as.RHS = &verilog.Call{Name: "$bogus", Args: []verilog.Expr{&verilog.Ident{Name: "v"}}}
		}), want: rejectAll},
		{name: "non-constant $past depth in logic", body: `
    always @(posedge clk) q <= $past(v, i);`,
			diag: "11:41: error: non-constant $past depth: references signal i\n"},
		{name: "non-constant $past depth in an assertion", body: `
    assign y = v;
    ap: assert property (@(posedge clk) y == $past(v, i));`,
			diag: "12:55: error: non-constant $past depth: references signal i\n"},
		{name: "x-bearing $past depth in an assertion", body: `
    assign y = v;
    ap: assert property (@(posedge clk) y == $past(v, 2'b0x));`,
			diag: "12:55: error: $past depth has x/z bits\n"},
		{name: "$past depth dividing by zero", body: `
    localparam W = 2;
    assign y = v;
    ap: assert property (@(posedge clk) y == $past(v, W/0));`,
			diag: "13:56: error: $past depth divides by zero\n"},
		{name: "out-of-range constant $past depth", body: `
    assign y = v;
    ap: assert property (@(posedge clk) y == $past(v, 0));`,
			diag: "12:55: error: $past depth 0 out of range [1, 2147483647]\n"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			src := strings.Replace(plannableModule, "BODY", row.body, 1)
			if row.diag != "" {
				d, diags, err := compile.Compile(src)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				if got := compile.FormatDiags(diags); d != nil || got != row.diag {
					t.Errorf("compile returned design %v, diagnostics %q, want %q", d != nil, got, row.diag)
				}
				return
			}
			d := mustCompile(t, src)
			if row.mutate != nil {
				row.mutate(d)
			}
			var got plannability
			if p := PlanOf(d); p != nil {
				got.plan = true
				got.plan4 = p.fourState() != nil
				got.lanes2 = p.lanes(TwoState) != nil
				got.lanes4 = p.lanes(FourState) != nil
			}
			got.ok2 = LanesOK(d, TwoState)
			got.ok4 = LanesOK(d, FourState)
			if got != row.want {
				t.Errorf("accepted by plan/plan4/lanes2/lanes4/LanesOK2/LanesOK4 = %v, want %v", got, row.want)
			}
			if !got.plan || !got.plan4 {
				return
			}
			stim := rampStimulus(d, 4)
			for _, mode := range []Mode{TwoState, FourState} {
				tr, err := RunVecCtx(context.Background(), d, stim, mode)
				if err != nil {
					t.Fatalf("%v plan run: %v", mode, err)
				}
				ref, err := RunReferenceCtx(context.Background(), d, stim, mode)
				if err != nil {
					t.Fatalf("%v reference run: %v", mode, err)
				}
				diffTraces(t, tr, ref, mode, 0, "plan vs reference")
			}
		})
	}
}
