package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/verilog"
)

// runBoth simulates on the compiled plan and the reference interpreter and
// requires them to agree before returning the trace; the semantics
// regression tests below therefore pin both execution paths at once. It
// drives the inputs named in cols, as vec does.
func runBoth(t *testing.T, src, cols string, rows [][]uint64) *Trace {
	t.Helper()
	d := mustCompile(t, src)
	if PlanOf(d) == nil {
		t.Fatalf("design unexpectedly unplannable")
	}
	stim := vec(d, cols, rows)
	tr, err := RunVecCtx(context.Background(), d, stim, TwoState)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunReferenceCtx(context.Background(), mustCompile(t, src), stim, TwoState)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < tr.Len(); c++ {
		for _, name := range d.Order {
			got, _ := tr.Value(c, name)
			want, _ := ref.Value(c, name)
			if got != want {
				t.Fatalf("plan/reference divergence: cycle %d %s: plan=%#x ref=%#x", c, name, got, want)
			}
		}
	}
	return tr
}

// >>> must sign-extend from the left operand's self-determined width; it
// was previously evaluated identically to logical >>.
func TestAShrSignExtends(t *testing.T) {
	src := `
module ashr (
    input [7:0] a,
    input [3:0] s,
    output [7:0] ar,
    output [7:0] lr
);
    assign ar = a >>> s;
    assign lr = a >> s;
endmodule
`
	cases := []struct {
		a, s, ar, lr uint64
	}{
		{0x80, 2, 0xE0, 0x20}, // negative: high bits fill with sign
		{0x40, 2, 0x10, 0x10}, // positive: identical to logical shift
		{0xFF, 7, 0xFF, 0x01},
		{0x80, 9, 0xFF, 0x00}, // shift >= width saturates to the sign
		{0x7F, 9, 0x00, 0x00},
		{0x00, 3, 0x00, 0x00},
	}
	for _, tc := range cases {
		tr := runBoth(t, src, "a s", [][]uint64{{tc.a, tc.s}})
		if got, _ := tr.Value(0, "ar"); got != tc.ar {
			t.Errorf("%#x >>> %d = %#x, want %#x", tc.a, tc.s, got, tc.ar)
		}
		if got, _ := tr.Value(0, "lr"); got != tc.lr {
			t.Errorf("%#x >> %d = %#x, want %#x", tc.a, tc.s, got, tc.lr)
		}
	}
}

// Unary minus must be masked to its operand's self-determined width like
// its sibling ~; it previously leaked all 64 borrow bits into wider
// contexts.
func TestUnaryMinusMaskedToOperandWidth(t *testing.T) {
	src := `
module neg (
    input [3:0] a,
    output [7:0] y,
    output lt
);
    assign y = -a;
    assign lt = 8'd200 < -a;
endmodule
`
	tr := runBoth(t, src, "a", [][]uint64{{1}})
	// -4'd1 is 4'hF: widening to 8 bits must not smear the sign.
	if got, _ := tr.Value(0, "y"); got != 0x0F {
		t.Errorf("-4'd1 widened = %#x, want 0x0f", got)
	}
	// 200 < 15 is false; before the fix -a evaluated as 2^64-1 so the
	// comparison was true.
	if got, _ := tr.Value(0, "lt"); got != 0 {
		t.Errorf("200 < -4'd1 = %d, want 0", got)
	}
}

// A nonblocking write that textually follows a blocking write to the same
// signal must win at the edge (program-order commit); the blocking overlay
// used to be folded in afterwards, clobbering it.
func TestSeqCommitProgramOrder(t *testing.T) {
	src := `
module po (
    input clk,
    input [3:0] d,
    output reg [3:0] q
);
    always @(posedge clk) begin
        q = d;
        q <= ~d;
    end
endmodule
`
	tr := runBoth(t, src, "d", [][]uint64{{5}, {5}})
	if got, _ := tr.Value(1, "q"); got != 0xA {
		t.Errorf("q after edge = %#x, want 0xa (nonblocking write is last in program order)", got)
	}

	// And the mirror image: a blocking write after a nonblocking one wins.
	rev := `
module po2 (
    input clk,
    input [3:0] d,
    output reg [3:0] q
);
    always @(posedge clk) begin
        q <= ~d;
        q = d;
    end
endmodule
`
	tr = runBoth(t, rev, "d", [][]uint64{{5}, {5}})
	if got, _ := tr.Value(1, "q"); got != 5 {
		t.Errorf("q after edge = %#x, want 0x5 (blocking write is last in program order)", got)
	}
}

// A nonblocking bit write must read-modify-write on top of the same
// block's earlier blocking result, not the stale pre-edge value.
func TestNBABitWriteSeesBlockingOverlay(t *testing.T) {
	src := `
module rmw (
    input clk,
    output reg [7:0] q
);
    always @(posedge clk) begin
        q = 8'h0F;
        q[7] <= 1'b1;
    end
endmodule
`
	tr := runBoth(t, src, "", [][]uint64{{}, {}})
	if got, _ := tr.Value(1, "q"); got != 0x8F {
		t.Errorf("q after edge = %#x, want 0x8f (bit RMW over the blocking result)", got)
	}

	// Slice variant: the nonblocking slice write lands on the blocking
	// full-write's value.
	slice := `
module rmws (
    input clk,
    output reg [7:0] q
);
    always @(posedge clk) begin
        q = 8'hF0;
        q[3:0] <= 4'h5;
    end
endmodule
`
	tr = runBoth(t, slice, "", [][]uint64{{}, {}})
	if got, _ := tr.Value(1, "q"); got != 0xF5 {
		t.Errorf("q after edge = %#x, want 0xf5 (slice RMW over the blocking result)", got)
	}
}

// histEnv is a minimal HistoryEnv for direct evaluator tests.
type histEnv struct {
	vals map[string]uint64
	back int // how many cycles of history exist
}

func (e histEnv) Value(name string) (uint64, bool) { v, ok := e.vals[name]; return v, ok }
func (e histEnv) Width(string) int                 { return 8 }
func (e histEnv) At(offset int) Env {
	if offset > e.back {
		return nil
	}
	return e
}

// $past must reject depths that are zero or would overflow the int history
// offset instead of producing undefined history accesses.
func TestPastDepthValidated(t *testing.T) {
	env := histEnv{vals: map[string]uint64{"x": 7}, back: 4}
	past := func(depth uint64) verilog.Expr {
		return &verilog.Call{Name: "$past", Args: []verilog.Expr{
			&verilog.Ident{Name: "x"},
			&verilog.Number{Value: depth},
		}}
	}
	if _, err := Eval(past(1), env); err != nil {
		t.Errorf("$past(x, 1): unexpected error %v", err)
	}
	var evalErr *EvalError
	if _, err := Eval(past(0), env); err == nil || !errors.As(err, &evalErr) {
		t.Errorf("$past(x, 0): want EvalError, got %v", err)
	}
	// A "negative" depth arrives as a huge uint64 after two's-complement
	// wrapping; it must be rejected, not converted to int.
	if _, err := Eval(past(^uint64(0)), env); err == nil || !errors.As(err, &evalErr) {
		t.Errorf("$past(x, -1): want EvalError, got %v", err)
	}
	if _, err := Eval(past(uint64(maxPastDepth)+1), env); err == nil || !errors.As(err, &evalErr) {
		t.Errorf("$past(x, maxPastDepth+1): want EvalError, got %v", err)
	}
}

// compileErr returns the diagnostics of a source that must not compile.
func compileErr(t *testing.T, src string) string {
	t.Helper()
	d, diags, err := compile.Compile(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if d != nil {
		t.Fatal("source compiled")
	}
	return compile.FormatDiags(diags)
}

// setPastDepth rewrites the depth of every two-argument $past in d's
// assertions and continuous assignments to n, reaching the out-of-range
// depths that internal/compile rejects.
func setPastDepth(d *compile.Design, n uint64) {
	visit := func(e verilog.Expr) {
		verilog.WalkExpr(e, func(sub verilog.Expr) {
			if c, ok := sub.(*verilog.Call); ok && c.Name == "$past" && len(c.Args) > 1 {
				c.Args[1] = &verilog.Number{Value: n}
			}
		})
	}
	for _, a := range d.Assigns {
		visit(a.RHS)
	}
	for _, a := range d.Asserts {
		for _, t := range a.Seq.Consequent {
			visit(t.Expr)
		}
	}
}

// An out-of-range $past depth is a compile error. The planner refuses one
// it is handed in a design changed after elaboration: the design has no
// plan in either value domain, and a run reports the depth with its
// position.
func TestPastDepthValidatedCompiled(t *testing.T) {
	src := `
module pd (
    input clk,
    input [3:0] x,
    output [3:0] y
);
    assign y = x;
    ap: assert property (@(posedge clk) y == $past(y, 0));
endmodule
`
	if got, want := compileErr(t, src), "8:55: error: $past depth 0 out of range [1, 2147483647]\n"; got != want {
		t.Errorf("diagnostics %q, want %q", got, want)
	}
	d := mustCompile(t, strings.Replace(src, "$past(y, 0)", "$past(y, 1)", 1))
	setPastDepth(d, 0)
	if PlanOf(d) != nil {
		t.Fatal("a design with $past depth 0 has a plan")
	}
	for _, mode := range []Mode{TwoState, FourState} {
		_, err := RunVecCtx(context.Background(), d, vec(d, "x", [][]uint64{{1}, {2}}), mode)
		want := fmt.Sprintf("sim: design has no %v execution plan: sim: unplannable design: 8:46: $past depth 0 out of range [1, 2147483647]", mode)
		if err == nil || err.Error() != want {
			t.Errorf("mode %v: run error %v, want %q", mode, err, want)
		}
	}
}

// A bad $past in design logic reports the reference interpreter's error on
// the compiled plan too, in both value domains. A depth that is zero or
// names a signal is a compile error; a zero depth handed to both engines
// stops the plan's lowering with the interpreter's error text, and a valid
// depth is outside sampled context on both. A verdict's log carries this
// text, so it must not depend on the engine that ran.
func TestPastInDesignLogicErrorMatchesReference(t *testing.T) {
	const src = `
module pastlogic (
    input clk,
    input [3:0] a,
    output [3:0] y
);
    assign y = $past(a, DEPTH);
endmodule
`
	for depth, want := range map[string]string{
		"0": "7:25: error: $past depth 0 out of range [1, 2147483647]\n",
		"a": "7:25: error: non-constant $past depth: references signal a\n",
	} {
		if got := compileErr(t, strings.Replace(src, "DEPTH", depth, 1)); got != want {
			t.Errorf("$past(a, %s): diagnostics %q, want %q", depth, got, want)
		}
	}
	for _, zero := range []bool{false, true} {
		design := func() *compile.Design {
			d := mustCompile(t, strings.Replace(src, "DEPTH", "2", 1))
			if zero {
				setPastDepth(d, 0)
			}
			return d
		}
		d := design()
		stim := vec(d, "a", [][]uint64{{0}, {0}})
		for _, mode := range []Mode{TwoState, FourState} {
			_, err := RunVecCtx(context.Background(), d, stim, mode)
			_, ref := RunReferenceCtx(context.Background(), design(), stim, mode)
			if ref == nil {
				t.Fatalf("zero depth %v, mode %v: the reference interpreter ran", zero, mode)
			}
			want := ref.Error()
			if zero {
				want = fmt.Sprintf("sim: design has no %v execution plan: sim: unplannable design: %s", mode, want)
			}
			if err == nil || err.Error() != want {
				t.Errorf("zero depth %v, mode %v: plan error %v, want %q", zero, mode, err, want)
			}
		}
	}
}
