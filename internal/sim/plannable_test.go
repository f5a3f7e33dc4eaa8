package sim

import (
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
// construct. lanes2/lanes4 are the lane plans themselves (nil only when a
// design-body construct cannot lower); ok2/ok4 are LanesOK, which also
// requires every assertion expression to lower per lane-word.
type plannability struct {
	plan, plan4, lanes2, lanes4, ok2, ok4 bool
}

var (
	acceptAll  = plannability{true, true, true, true, true, true}
	rejectAll  = plannability{}
	twoOnly    = plannability{plan: true, lanes2: true, ok2: true}
	scalarOnly = plannability{plan: true, plan4: true}
	noLaneSVA  = plannability{plan: true, plan4: true, lanes2: true, lanes4: true}
)

// TestPlannabilityTable pins, for every unplannable reason the lowerings
// can reach plus plannable controls, which of PlanOf, the four-state plan,
// the two lane plans and LanesOK accept the construct. Constructs the
// parser and elaborator never produce (an unknown identifier, a call with
// no arguments, a non-identifier store base) are spliced into an
// elaborated design's AST before its plan is built. Three reasons are
// unreachable and have no row: an unknown statement kind (verilog.Stmt is
// sealed) and unknown unary or binary operators (the operator sets are
// closed enums every lowering covers).
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
		{name: "invalid constant slice reads fail at run time", body: `
    assign y = v[0:3];`, want: acceptAll},
		{name: "out-of-range constant $past depth fails at run time", body: `
    assign y = v;
    ap: assert property (@(posedge clk) y == $past(v, 0));`, want: acceptAll},

		// Assignment targets.
		{name: "assignment to unknown signal", body: `
    assign y = v;`, mutate: assign0(func(as *verilog.AssignItem) {
			as.LHS = &verilog.Ident{Name: "nosuch"}
		}), want: rejectAll},
		{name: "unsupported index target base", body: `
    assign y = v;`, mutate: assign0(func(as *verilog.AssignItem) {
			as.LHS = &verilog.Index{X: num(1), Idx: num(0)}
		}), want: rejectAll},
		{name: "unsupported slice target base", body: `
    assign y = v;`, mutate: assign0(func(as *verilog.AssignItem) {
			as.LHS = &verilog.Slice{X: num(1), Hi: num(3), Lo: num(0)}
		}), want: rejectAll},
		{name: "unsupported assignment target kind", body: `
    assign y = v;`, mutate: assign0(func(as *verilog.AssignItem) {
			as.LHS = num(1)
		}), want: rejectAll},
		{name: "dynamic slice bounds in assignment target", body: `
    always @(posedge clk) q[i:0] <= v;`, want: rejectAll},
		{name: "x-bearing slice bound in assignment target", body: `
    always @(posedge clk) q[2'b1x:0] <= v;`, want: twoOnly},
		{name: "invalid slice target", body: `
    always @(posedge clk) q[0:3] <= v;`, want: rejectAll},
		{name: "dynamic width in concat assignment target", body: `
    always @(posedge clk) {q[0:3], b} <= v;`, want: rejectAll},

		// Expressions.
		{name: "unknown signal", body: `
    assign y = v;`, mutate: assign0(func(as *verilog.AssignItem) {
			as.RHS = &verilog.Ident{Name: "nosuch"}
		}), want: rejectAll},
		{name: "unknown expression kind", body: `
    assign y = v;`, mutate: assign0(func(as *verilog.AssignItem) {
			as.RHS = nil
		}), want: rejectAll},
		{name: "dynamic slice bounds", body: `
    assign y = v[i:0];`, want: rejectAll},
		{name: "x-bearing slice bound", body: `
    assign y = v[2'b1x:0];`, want: twoOnly},
		{name: "dynamic width in concat", body: `
    assign y = {v[0:3], a};`, want: rejectAll},
		{name: "dynamic replication count", body: `
    assign y = {i{a}};`, want: rejectAll},
		{name: "x-bearing replication count", body: `
    assign y = {2'b1x{a}};`, want: twoOnly},
		{name: "dynamic width in replication", body: `
    assign y = {2{v[0:3]}};`, want: rejectAll},
		{name: "dynamic operand width (unary)", body: `
    assign y = ~v[0:3];`, want: rejectAll},
		{name: "dynamic operand width (xnor)", body: `
    assign y = v ~^ v[0:3];`, want: rejectAll},
		{name: "dynamic operand width (arithmetic shift)", body: `
    assign y = v[0:3] >>> 1;`, want: rejectAll},
		{name: "dynamic operand width ($countones)", body: `
    assign y = $countones(v[0:3]);`, want: rejectAll},
		{name: "dynamic operand width ($isunknown)", body: `
    assign y = $isunknown(v[0:3]);`, want: twoOnly},
		{name: "system function without arguments", body: `
    assign y = v;`, mutate: assign0(func(as *verilog.AssignItem) {
			as.RHS = &verilog.Call{Name: "$countones"}
		}), want: rejectAll},
		{name: "unknown system function", body: `
    assign y = v;`, mutate: assign0(func(as *verilog.AssignItem) {
			as.RHS = &verilog.Call{Name: "$bogus", Args: []verilog.Expr{&verilog.Ident{Name: "v"}}}
		}), want: rejectAll},
		{name: "non-constant $past depth in logic", body: `
    always @(posedge clk) q <= $past(v, i);`, want: scalarOnly},
		{name: "non-constant $past depth in an assertion", body: `
    assign y = v;
    ap: assert property (@(posedge clk) y == $past(v, i));`, want: noLaneSVA},
		{name: "x-bearing $past depth in an assertion", body: `
    assign y = v;
    ap: assert property (@(posedge clk) y == $past(v, 2'b0x));`,
			want: plannability{plan: true, plan4: true, lanes2: true, lanes4: true, ok2: true}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			d := mustCompile(t, strings.Replace(plannableModule, "BODY", row.body, 1))
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
		})
	}
}
