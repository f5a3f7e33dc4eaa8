package sim

import (
	"context"
	"testing"

	"repro/internal/compile"
)

// runBoth4 runs the same stimulus, over the inputs named in cols, through
// the compiled four-state plan and the four-state reference interpreter
// and requires identical planes.
func runBoth4(t *testing.T, src, cols string, rows [][]uint64) *Trace {
	t.Helper()
	d1, diags, err := compile.Compile(src)
	if err != nil || compile.HasErrors(diags) {
		t.Fatalf("compile: %v %v", err, diags)
	}
	d2, _, _ := compile.Compile(src)
	stim := vec(d1, cols, rows)
	tr1, err := RunVecCtx(context.Background(), d1, stim, FourState)
	if err != nil {
		t.Fatalf("RunVecCtx: %v", err)
	}
	if tr1.Mode() != FourState {
		t.Fatalf("plan-backed four-state trace reports mode %v", tr1.Mode())
	}
	tr2, err := RunReferenceCtx(context.Background(), d2, stim, FourState)
	if err != nil {
		t.Fatalf("RunReferenceCtx: %v", err)
	}
	for c := 0; c < tr1.Len(); c++ {
		for _, name := range d1.Order {
			a, _ := tr1.Value4(c, name)
			b, _ := tr2.Value4(c, name)
			if a != b {
				t.Fatalf("cycle %d signal %s: plan=%+v reference=%+v", c, name, a, b)
			}
		}
	}
	return tr1
}

// repeatRow returns n copies of one stimulus row.
func repeatRow(n int, row ...uint64) [][]uint64 {
	rows := make([][]uint64, n)
	for i := range rows {
		rows[i] = row
	}
	return rows
}

// TestFourStateDivByZero pins the four-state rule the two-state engines
// deliberately lack: division (and modulus) by zero is all-x, not 0.
func TestFourStateDivByZero(t *testing.T) {
	src := `module m (
    input clk,
    input [3:0] in0,
    output [3:0] q,
    output [3:0] r
);
    assign q = 4'd12 / in0;
    assign r = 4'd12 % in0;
endmodule
`
	tr := runBoth4(t, src, "in0", repeatRow(2, 0))
	q, _ := tr.Value4(1, "q")
	if q != (V4{Val: 0, Unk: 0xF}) {
		t.Errorf("q = %+v, want all-x", q)
	}
	r, _ := tr.Value4(1, "r")
	if r != (V4{Val: 0, Unk: 0xF}) {
		t.Errorf("r = %+v, want all-x", r)
	}
	// Two-state keeps the historical 0.
	d, _, _ := compile.Compile(src)
	tr2, err := RunVecCtx(context.Background(), d, vec(d, "in0", repeatRow(2, 0)), TwoState)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := tr2.Value(1, "q"); v != 0 {
		t.Errorf("two-state q = %d, want 0", v)
	}
}

// TestFourStateUninitRegister: a register with no reset and no initialiser
// reads x until first assignment; one with a declared initialiser is known.
func TestFourStateUninitRegister(t *testing.T) {
	src := `module m (
    input clk,
    input en,
    output [3:0] q
);
    reg [3:0] cnt;
    reg [3:0] ini = 4'd5;
    always @(posedge clk) begin
        if (en)
            cnt <= 4'd1;
    end
    assign q = cnt;
endmodule
`
	tr := runBoth4(t, src, "en", [][]uint64{{0}, {0}, {1}, {0}})
	if v, _ := tr.Value4(0, "cnt"); v != (V4{Unk: 0xF}) {
		t.Errorf("cycle 0 cnt = %+v, want all-x", v)
	}
	if v, _ := tr.Value4(1, "ini"); v != (V4{Val: 5}) {
		t.Errorf("ini = %+v, want known 5", v)
	}
	// After the enabled edge (sampled at cycle 3), cnt is known.
	if v, _ := tr.Value4(3, "cnt"); v != (V4{Val: 1}) {
		t.Errorf("cycle 3 cnt = %+v, want known 1", v)
	}
}

// TestFourStateAbsorption: 0 & x = 0 and 1 | x = 1 per bit, while x ^ 0
// stays x; arithmetic with any unknown input is all-x.
func TestFourStateAbsorption(t *testing.T) {
	src := `module m (
    input clk,
    input [3:0] in0,
    output [3:0] a,
    output [3:0] o,
    output [3:0] x2,
    output [4:0] s,
    output lt
);
    wire [3:0] u = 4'b1x0z;
    assign a = u & in0;
    assign o = u | in0;
    assign x2 = u ^ in0;
    assign s = u + in0;
    assign lt = u < in0;
endmodule
`
	tr := runBoth4(t, src, "in0", [][]uint64{{0b0101}})
	// u = 1 x 0 x (z folds to x); in0 = 0101.
	// and: 1&0=0, x&1=x, 0&0=0, x&1=x -> 0x0x
	if v, _ := tr.Value4(0, "a"); v != (V4{Val: 0b0000, Unk: 0b0101}) {
		t.Errorf("a = %+v", v)
	}
	// or: 1|0=1, x|1=1, 0|0=0, x|1=1 -> 1101 known except none
	if v, _ := tr.Value4(0, "o"); v != (V4{Val: 0b1101, Unk: 0b0000}) {
		t.Errorf("o = %+v", v)
	}
	// xor: 1^0=1, x^1=x, 0^0=0, x^1=x
	if v, _ := tr.Value4(0, "x2"); v != (V4{Val: 0b1000, Unk: 0b0101}) {
		t.Errorf("x2 = %+v", v)
	}
	if v, _ := tr.Value4(0, "s"); v != (V4{Unk: 0x1F}) {
		t.Errorf("s = %+v, want all-x", v)
	}
	if v, _ := tr.Value4(0, "lt"); v != xBool {
		t.Errorf("lt = %+v, want x", v)
	}
}

// TestFourStateCaseEquality: === and !== are always known and compare both
// planes; == with unknowns is x; $isunknown detects the unknown plane.
func TestFourStateCaseEquality(t *testing.T) {
	src := `module m (
    input clk,
    output ceq,
    output cne,
    output eq,
    output unk,
    output kno
);
    wire [3:0] u = 4'b1x0z;
    wire [3:0] v = 4'b1xxz;
    assign ceq = u === 4'b1x0z;
    assign cne = u !== v;
    assign eq = u == 4'b1x0z;
    assign unk = $isunknown(u);
    assign kno = $isunknown(4'b1010);
endmodule
`
	tr := runBoth4(t, src, "", [][]uint64{{}})
	if v, _ := tr.Value4(0, "ceq"); v != (V4{Val: 1}) {
		t.Errorf("ceq = %+v, want known 1", v)
	}
	if v, _ := tr.Value4(0, "cne"); v != (V4{Val: 1}) {
		t.Errorf("cne = %+v, want known 1", v)
	}
	if v, _ := tr.Value4(0, "eq"); v != xBool {
		t.Errorf("eq = %+v, want x", v)
	}
	if v, _ := tr.Value4(0, "unk"); v != (V4{Val: 1}) {
		t.Errorf("unk = %+v, want known 1", v)
	}
	if v, _ := tr.Value4(0, "kno"); v != (V4{}) {
		t.Errorf("kno = %+v, want known 0", v)
	}
}

// TestFourStateTernaryMerge: an x-selected conditional merges its arms
// bitwise — agreeing known bits survive, the rest go x.
func TestFourStateTernaryMerge(t *testing.T) {
	src := `module m (
    input clk,
    output [3:0] q
);
    wire sel = 1'bx;
    assign q = sel ? 4'b1100 : 4'b1010;
endmodule
`
	tr := runBoth4(t, src, "", [][]uint64{{}})
	if v, _ := tr.Value4(0, "q"); v != (V4{Val: 0b1000, Unk: 0b0110}) {
		t.Errorf("q = %+v, want val 1000 unk 0110", v)
	}
}

// TestFourStateResetVisibility is the bug-class motivation in miniature: a
// counter whose reset branch was deleted still passes two-state simulation
// (registers silently init to 0) but reads x after the reset window in
// four-state mode.
func TestFourStateResetVisibility(t *testing.T) {
	src := `module m (
    input clk,
    input rst_n,
    output [3:0] q
);
    reg [3:0] cnt;
    always @(posedge clk) begin
        cnt <= cnt + 4'd1;
    end
    assign q = cnt;
endmodule
`
	rows := [][]uint64{{0}, {0}, {1}, {1}}
	// Two-state: cnt starts 0 and counts.
	d, _, _ := compile.Compile(src)
	tr2, err := RunVecCtx(context.Background(), d, vec(d, "rst_n", rows), TwoState)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := tr2.Value(3, "cnt"); v != 3 {
		t.Errorf("two-state cnt = %d, want 3", v)
	}
	// Four-state: x + 1 stays x forever.
	tr4 := runBoth4(t, src, "rst_n", rows)
	if v, _ := tr4.Value4(3, "cnt"); v != (V4{Unk: 0xF}) {
		t.Errorf("four-state cnt = %+v, want all-x", v)
	}
}

// TestFourStateUnknownSliceBound: an x/z-bearing literal in a part-select
// bound or a replication count is a compile error. The reference
// interpreter reads such a select all-x in the four-state domain but its x
// bits as 0 in two-state, and every constant compile accepts has one value
// in both domains.
func TestFourStateUnknownSliceBound(t *testing.T) {
	src := `module m (
    input clk,
    input [3:0] in0,
    output [2:0] o,
    output [3:0] r
);
    assign o = in0[2'b1x:0];
    assign r = {2'b1x{in0[0]}};
endmodule
`
	want := "7:20: error: part-select bound has x/z bits\n8:17: error: replication count has x/z bits\n"
	if got := compileErr(t, src); got != want {
		t.Errorf("diagnostics %q, want %q", got, want)
	}
}

// TestFourStateUnknownSliceStoreNoop: a store through an x/z-bearing
// part-select bound, a no-op on the four-state reference interpreter, is a
// compile error like the matching read.
func TestFourStateUnknownSliceStoreNoop(t *testing.T) {
	src := `module m (
    input clk,
    input [3:0] in0,
    output [3:0] q
);
    reg [3:0] r0 = 4'b0000;
    always @(posedge clk) begin
        r0[2'b1x:0] <= in0[2:0];
    end
    assign q = r0;
endmodule
`
	if got, want := compileErr(t, src), "8:12: error: part-select bound has x/z bits\n"; got != want {
		t.Errorf("diagnostics %q, want %q", got, want)
	}
}

// TestFourStateXZLiteralInit: x/z bits in a declared initialiser start
// unknown, the known bits start known.
func TestFourStateXZLiteralInit(t *testing.T) {
	src := `module m (
    input clk,
    output [3:0] q
);
    reg [3:0] r = 4'b1x0z;
    assign q = r;
endmodule
`
	tr := runBoth4(t, src, "", [][]uint64{{}})
	if v, _ := tr.Value4(0, "r"); v != (V4{Val: 0b1000, Unk: 0b0101}) {
		t.Errorf("r = %+v, want val 1000 unk 0101", v)
	}
}
