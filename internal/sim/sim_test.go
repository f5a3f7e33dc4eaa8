package sim

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/verilog"
)

func mustCompile(t *testing.T, src string) *compile.Design {
	t.Helper()
	d, diags, err := compile.Compile(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if compile.HasErrors(diags) {
		t.Fatalf("compile errors:\n%s", compile.FormatDiags(diags))
	}
	return d
}

// vec builds a stimulus over d's inputs named in cols, space-separated:
// rows[c][i] drives the i-th named input at cycle c.
func vec(d *compile.Design, cols string, rows [][]uint64) VecStimulus {
	st := VecStimulus{Rows: rows}
	for _, name := range strings.Fields(cols) {
		st.Inputs = append(st.Inputs, d.Signals[name])
	}
	return st
}

const counterSrc = `
module counter (
    input clk,
    input rst_n,
    input en,
    output reg [3:0] count,
    output wrap
);
    parameter MAX = 9;
    assign wrap = count == MAX;
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) count <= 0;
        else if (en) begin
            if (wrap) count <= 0;
            else count <= count + 1;
        end
    end
endmodule
`

func TestCounterBasic(t *testing.T) {
	d := mustCompile(t, counterSrc)
	stim := vec(d, "rst_n en", [][]uint64{{0, 0}, {1, 1}})
	for i := 0; i < 12; i++ {
		stim.Rows = append(stim.Rows, []uint64{1, 1})
	}
	tr, err := RunVecCtx(context.Background(), d, stim, TwoState)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle 0: reset asserted, count samples 0. After reset deasserts the
	// counter increments once per enabled cycle and wraps at MAX=9.
	wantCount := []uint64{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2}
	for i, want := range wantCount {
		got, ok := tr.Value(i, "count")
		if !ok || got != want {
			t.Errorf("cycle %d: count = %d (ok=%v), want %d", i, got, ok, want)
		}
	}
	// wrap must be high exactly when count == 9.
	for i := range wantCount {
		count, _ := tr.Value(i, "count")
		wrap, _ := tr.Value(i, "wrap")
		want := uint64(0)
		if count == 9 {
			want = 1
		}
		if wrap != want {
			t.Errorf("cycle %d: wrap = %d with count %d", i, wrap, count)
		}
	}
}

func TestEnableGating(t *testing.T) {
	d := mustCompile(t, counterSrc)
	stim := vec(d, "rst_n en", [][]uint64{
		{0, 0},
		{1, 1},
		{1, 0},
		{1, 0},
		{1, 1},
		{1, 1},
	})
	tr, err := RunVecCtx(context.Background(), d, stim, TwoState)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 0, 1, 1, 1, 2}
	for i, w := range want {
		got, _ := tr.Value(i, "count")
		if got != w {
			t.Errorf("cycle %d: count = %d, want %d", i, got, w)
		}
	}
}

func TestMidRunReset(t *testing.T) {
	d := mustCompile(t, counterSrc)
	stim := vec(d, "rst_n en", [][]uint64{
		{1, 1},
		{1, 1},
		{1, 1},
		{0, 1}, // async reset pulse
		{1, 1},
	})
	tr, err := RunVecCtx(context.Background(), d, stim, TwoState)
	if err != nil {
		t.Fatal(err)
	}
	got3, _ := tr.Value(4, "count") // cycle after reset: sampled 0
	if got3 != 0 {
		t.Errorf("count after reset = %d, want 0", got3)
	}
}

// The Fig. 1 accumulator: accumulates 4 inputs, then pulses valid_out.
const accuSrc = `
module accu (
    input clk,
    input rst_n,
    input [7:0] in,
    input valid_in,
    output reg valid_out,
    output reg [9:0] data_out
);
    wire end_cnt;
    reg [1:0] count;
    assign end_cnt = valid_in && count == 2'd3;
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) count <= 0;
        else if (valid_in) count <= count + 1;
    end
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) valid_out <= 0;
        else if (end_cnt) valid_out <= 1;
        else valid_out <= 0;
    end
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) data_out <= 0;
        else if (valid_in) data_out <= data_out + in;
    end
endmodule
`

func TestAccu(t *testing.T) {
	d := mustCompile(t, accuSrc)
	stim := vec(d, "rst_n in valid_in", [][]uint64{
		{0, 0, 0},
		{1, 10, 1},
		{1, 20, 1},
		{1, 30, 1},
		{1, 40, 1},
		{1, 0, 0},
	})
	tr, err := RunVecCtx(context.Background(), d, stim, TwoState)
	if err != nil {
		t.Fatal(err)
	}
	// end_cnt rises in cycle 4 (count==3 && valid_in); valid_out pulses in
	// cycle 5's sample; data_out totals 100.
	if v, _ := tr.Value(4, "end_cnt"); v != 1 {
		t.Errorf("end_cnt at cycle 4 = %d, want 1", v)
	}
	if v, _ := tr.Value(5, "valid_out"); v != 1 {
		t.Errorf("valid_out at cycle 5 = %d, want 1", v)
	}
	if v, _ := tr.Value(5, "data_out"); v != 100 {
		t.Errorf("data_out at cycle 5 = %d, want 100", v)
	}
}

func TestBlockingVsNonblocking(t *testing.T) {
	// Classic shift register: with NBAs both stages move together; with
	// blocking assignments the value skips through in one cycle.
	nbSrc := `
module shift (
    input clk,
    input d,
    output reg q1,
    output reg q2
);
    always @(posedge clk) begin
        q1 <= d;
        q2 <= q1;
    end
endmodule
`
	bSrc := strings.ReplaceAll(nbSrc, "<=", "=")
	dNB := mustCompile(t, nbSrc)
	dB := mustCompile(t, bSrc)
	rows := [][]uint64{{1}, {0}, {0}}

	trNB, err := RunVecCtx(context.Background(), dNB, vec(dNB, "d", rows), TwoState)
	if err != nil {
		t.Fatal(err)
	}
	// NBA: q2 sees the old q1, so the 1 arrives at q2 one cycle after q1.
	if v, _ := trNB.Value(1, "q1"); v != 1 {
		t.Errorf("NBA q1 cycle1 = %d, want 1", v)
	}
	if v, _ := trNB.Value(1, "q2"); v != 0 {
		t.Errorf("NBA q2 cycle1 = %d, want 0", v)
	}
	if v, _ := trNB.Value(2, "q2"); v != 1 {
		t.Errorf("NBA q2 cycle2 = %d, want 1", v)
	}

	trB, err := RunVecCtx(context.Background(), dB, vec(dB, "d", rows), TwoState)
	if err != nil {
		t.Fatal(err)
	}
	// Blocking: q2 = q1 reads the just-written q1, so both update together.
	if v, _ := trB.Value(1, "q2"); v != 1 {
		t.Errorf("blocking q2 cycle1 = %d, want 1", v)
	}
}

func TestCombAlwaysCase(t *testing.T) {
	src := `
module dec (
    input [1:0] sel,
    output reg [3:0] y
);
    always @(*) begin
        case (sel)
            2'd0: y = 4'b0001;
            2'd1: y = 4'b0010;
            2'd2: y = 4'b0100;
            default: y = 4'b1000;
        endcase
    end
endmodule
`
	d := mustCompile(t, src)
	for sel, want := range map[uint64]uint64{0: 1, 1: 2, 2: 4, 3: 8} {
		tr, err := RunVecCtx(context.Background(), d, vec(d, "sel", [][]uint64{{sel}}), TwoState)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := tr.Value(0, "y"); got != want {
			t.Errorf("sel=%d: y = %d, want %d", sel, got, want)
		}
	}
}

func TestCombLoopDetected(t *testing.T) {
	src := `
module osc (
    input a,
    output w
);
    wire x;
    assign x = ~x | a;
    assign w = x;
endmodule
`
	d := mustCompile(t, src)
	if _, err := RunVecCtx(context.Background(), d, vec(d, "a", [][]uint64{{0}}), TwoState); err == nil {
		t.Fatal("want combinational settle error")
	}
}

func TestBitAndSliceAssign(t *testing.T) {
	src := `
module bits (
    input clk,
    input [7:0] d,
    output reg [7:0] q
);
    always @(posedge clk) begin
        q[3:0] <= d[7:4];
        q[7] <= d[0];
    end
endmodule
`
	d := mustCompile(t, src)
	tr, err := RunVecCtx(context.Background(), d, vec(d, "d", [][]uint64{{0xA5}, {0xA5}}), TwoState)
	if err != nil {
		t.Fatal(err)
	}
	// d = 1010_0101: q[3:0] <= 1010, q[7] <= 1.
	got, _ := tr.Value(1, "q")
	if got != 0x8A {
		t.Errorf("q = %#x, want 0x8a", got)
	}
}

func TestConcatAssign(t *testing.T) {
	src := `
module cc (
    input [3:0] a,
    input [3:0] b,
    output [7:0] y
);
    assign y = {a, b};
endmodule
`
	d := mustCompile(t, src)
	tr, err := RunVecCtx(context.Background(), d, vec(d, "a b", [][]uint64{{0xC, 0x3}}), TwoState)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := tr.Value(0, "y"); got != 0xC3 {
		t.Errorf("y = %#x, want 0xc3", got)
	}
}

func TestRegInitApplied(t *testing.T) {
	src := `
module ini (
    input clk,
    output reg [3:0] q
);
    reg [3:0] seed = 4'd7;
    always @(posedge clk) q <= seed;
endmodule
`
	d := mustCompile(t, src)
	tr, err := RunVecCtx(context.Background(), d, vec(d, "", [][]uint64{{}, {}}), TwoState)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := tr.Value(0, "seed"); got != 7 {
		t.Errorf("seed = %d, want 7", got)
	}
	if got, _ := tr.Value(1, "q"); got != 7 {
		t.Errorf("q = %d, want 7", got)
	}
}

func TestTraceFormat(t *testing.T) {
	d := mustCompile(t, counterSrc)
	tr, err := RunVecCtx(context.Background(), d, vec(d, "rst_n en", [][]uint64{{0, 0}, {1, 1}}), TwoState)
	if err != nil {
		t.Fatal(err)
	}
	text := tr.Format([]string{"count", "wrap"})
	if !strings.Contains(text, "count") || !strings.Contains(text, "wrap") {
		t.Errorf("Format output missing signals:\n%s", text)
	}
}

// TestCompileExpr4PlanOnly: on a plan trace CompileExpr4 resolves the
// expressions the plan lowered with the design's assertions, as the
// reference trace's interpreter does, and the evaluator of any other
// expression reports an error; a reference trace evaluates any expression.
func TestCompileExpr4PlanOnly(t *testing.T) {
	d := mustCompile(t, `module m(input clk, input [3:0] a, output [3:0] y);
    assign y = a + 4'd1;
    ap: assert property (@(posedge clk) y != 4'd0);
endmodule
`)
	stim := vec(d, "a", [][]uint64{{3}, {15}})
	plan, err := RunVecCtx(context.Background(), d, stim, TwoState)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunReferenceCtx(context.Background(), d, stim, TwoState)
	if err != nil {
		t.Fatal(err)
	}
	term := d.Asserts[0].Seq.Consequent[0].Expr
	for c, want := range []uint64{1, 0} {
		got, err := plan.CompileExpr4(term)(c)
		gotRef, errRef := ref.CompileExpr4(term)(c)
		if err != nil || errRef != nil || got != known(want) || gotRef != got {
			t.Errorf("cycle %d: plan %v, %v; reference %v, %v; want %d", c, got, err, gotRef, errRef, want)
		}
	}
	other := &verilog.Binary{Op: verilog.BinAdd, X: &verilog.Ident{Name: "a"}, Y: &verilog.Number{Value: 2}}
	if _, err := plan.CompileExpr4(other)(1); err == nil || !strings.Contains(err.Error(), "not lowered") {
		t.Errorf("plan trace, expression outside the assertions: error %v, want one saying it is not lowered", err)
	}
	if got, err := ref.CompileExpr4(other)(1); err != nil || got != known(17) {
		t.Errorf("reference trace, expression outside the assertions: %v, %v, want 17", got, err)
	}
}

// TestStimulusValidationMatchesReference: a stimulus is checked once, up
// front, so the compiled plan and the reference interpreter reject the
// same bad stimulus with the same error, in both value domains, even with
// zero rows. A driven input is masked to its width, and a ragged row or a
// nil input (what d.Signals yields for a misspelt name) is an error, not a
// panic, here and in PackStimuli.
func TestStimulusValidationMatchesReference(t *testing.T) {
	const body = `
module pq (
    input clk,
    input en,
    input [3:0] v,
    input [1:0] i,
    output reg [3:0] q
);
    always @(posedge clk) if (en) %s <= v;
endmodule
`
	// A select with dynamic bounds does not compile.
	if _, diags, _ := compile.Compile(fmt.Sprintf(body, "q[i:0]")); compile.FormatDiags(diags) != "9:37: error: non-constant part-select bound: references signal i\n" {
		t.Errorf("q[i:0]: diagnostics %q", compile.FormatDiags(diags))
	}
	ghost := &compile.Signal{Name: "ghost", Width: 1}
	const lhs = "q"
	src := fmt.Sprintf(body, lhs)
	d := mustCompile(t, src)
	for _, mode := range []Mode{TwoState, FourState} {
		for _, tc := range []struct {
			name string
			stim VecStimulus
			want string
		}{
			{"output column", vec(d, "en q", [][]uint64{{1, 2}}), `sim: "q" is not an input`},
			{"output column, no rows", vec(d, "en q", nil), `sim: "q" is not an input`},
			{"unknown signal", VecStimulus{Inputs: []*compile.Signal{ghost}, Rows: [][]uint64{{1}}}, `sim: "ghost" is not an input`},
			{"nil input", vec(d, "en vv", [][]uint64{{1, 2}}), "sim: stimulus input 1 is nil"},
			{"ragged row", vec(d, "en v i", [][]uint64{{1, 2, 0}, {1}}), "sim: stimulus row 1 holds 1 values for 3 inputs"},
		} {
			_, errPlan := RunVecCtx(context.Background(), d, tc.stim, mode)
			_, errRef := RunReferenceCtx(context.Background(), mustCompile(t, src), tc.stim, mode)
			for _, err := range []error{errPlan, errRef} {
				if err == nil || err.Error() != tc.want {
					t.Errorf("%s %v %s: plan err=%v, reference err=%v, want %q", lhs, mode, tc.name, errPlan, errRef, tc.want)
					break
				}
			}
		}
		masked := vec(d, "en v i", [][]uint64{{0xFF, 3, 1}})
		for engine, run := range map[string]func(context.Context, *compile.Design, VecStimulus, Mode) (*Trace, error){
			"plan": RunVecCtx, "reference": RunReferenceCtx,
		} {
			tr, err := run(context.Background(), d, masked, mode)
			if err != nil {
				t.Fatalf("%s %v %s: %v", lhs, mode, engine, err)
			}
			if v, _ := tr.Value4(0, "en"); v != (V4{Val: 1}) {
				t.Errorf("%s %v %s: en driven 0xFF reads %+v, want 1", lhs, mode, engine, v)
			}
		}
	}
	ragged := vec(d, "en v i", [][]uint64{{1, 2, 0}, {1}})
	if _, err := PackStimuli([]VecStimulus{vec(d, "en v i", [][]uint64{{1, 2, 0}, {1, 2, 0}}), ragged}); err == nil {
		t.Errorf("%s: PackStimuli accepted a ragged row", lhs)
	}
	if _, err := PackStimuli([]VecStimulus{vec(d, "en v", [][]uint64{{1, 2}}), vec(d, "en vv", [][]uint64{{1, 2}})}); err == nil {
		t.Errorf("%s: PackStimuli accepted a nil input", lhs)
	}
}

// TestRunLanesRejectsMalformedStimulus: a LaneStimulus built by hand is
// checked before the first cycle, as PackStimuli checks its inputs. Rows
// must match Depth and hold one entry per input, a wide input's entry one
// value per lane, and no input may be nil; otherwise RunLanesCtx errs
// instead of panicking.
func TestRunLanesRejectsMalformedStimulus(t *testing.T) {
	d := mustCompile(t, accuSrc)
	ok := vec(d, "rst_n in valid_in", [][]uint64{{0, 1, 1}, {1, 2, 1}, {1, 3, 0}})
	for _, tc := range []struct {
		name  string
		spoil func(ls *LaneStimulus)
	}{
		{"short bit row", func(ls *LaneStimulus) { ls.Bits[1] = ls.Bits[1][:1] }},
		{"short wide row", func(ls *LaneStimulus) { ls.Wide[2] = ls.Wide[2][:2] }},
		{"short wide entry", func(ls *LaneStimulus) { ls.Wide[0][1] = ls.Wide[0][1][:1] }},
		{"depth past the rows", func(ls *LaneStimulus) { ls.Depth = 4 }},
		{"rows past the depth", func(ls *LaneStimulus) { ls.Depth = 2 }},
		{"negative depth", func(ls *LaneStimulus) { ls.Depth = -1 }},
		{"no lanes", func(ls *LaneStimulus) { ls.N = 0 }},
		{"65 lanes", func(ls *LaneStimulus) { ls.N = 65 }},
		{"nil input", func(ls *LaneStimulus) { ls.Inputs = []*compile.Signal{ls.Inputs[0], nil, ls.Inputs[2]} }},
	} {
		for _, mode := range []Mode{TwoState, FourState} {
			ls, err := PackStimuli([]VecStimulus{ok, ok})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunLanesCtx(context.Background(), d, ls, mode); err != nil {
				t.Fatalf("%v: the packed stimulus fails: %v", mode, err)
			}
			tc.spoil(ls)
			if _, err := RunLanesCtx(context.Background(), d, ls, mode); err == nil {
				t.Errorf("%s, %v: RunLanesCtx accepted the stimulus", tc.name, mode)
			}
		}
	}
}
