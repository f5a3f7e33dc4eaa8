package sva

import (
	"context"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/sim"
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
func vec(d *compile.Design, cols string, rows [][]uint64) sim.VecStimulus {
	st := sim.VecStimulus{Rows: rows}
	for _, name := range strings.Fields(cols) {
		st.Inputs = append(st.Inputs, d.Signals[name])
	}
	return st
}

// runAndCheck simulates src in two-state over the inputs named in cols, as
// vec does, and checks the trace.
func runAndCheck(t *testing.T, src, cols string, rows [][]uint64) *Result {
	t.Helper()
	d := mustCompile(t, src)
	tr, err := sim.RunVecCtx(context.Background(), d, vec(d, cols, rows), sim.TwoState)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	res, err := Check(tr)
	if err != nil {
		t.Fatalf("sva: %v", err)
	}
	return res
}

// The Fig. 1 accumulator, correct version: assertion must hold.
const accuGood = `
module accu (
    input clk,
    input rst_n,
    input [7:0] in,
    input valid_in,
    output reg valid_out
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
    property valid_out_check;
        @(posedge clk) disable iff (!rst_n)
        end_cnt |-> ##1 valid_out == 1;
    endproperty
    valid_out_check_assertion: assert property (valid_out_check)
        else $error("valid_out should be high when end_cnt high");
endmodule
`

const accuCols = "rst_n in valid_in"

func accuRows() [][]uint64 {
	rows := [][]uint64{{0, 0, 0}}
	for i := 0; i < 10; i++ {
		rows = append(rows, []uint64{1, uint64(i + 1), 1})
	}
	return rows
}

func TestAccuGoodPasses(t *testing.T) {
	res := runAndCheck(t, accuGood, accuCols, accuRows())
	if res.Failed() {
		t.Fatalf("unexpected failures: %v", res.Failures)
	}
	if res.Attempts["valid_out_check_assertion"] == 0 {
		t.Error("assertion never attempted (vacuous coverage)")
	}
}

// The Fig. 1 bug: "else if (!end_cnt)" inverts the condition, so valid_out
// is high except right after end_cnt — the assertion must fire.
func TestAccuBugFails(t *testing.T) {
	bad := strings.Replace(accuGood, "else if (end_cnt) valid_out <= 1;", "else if (!end_cnt) valid_out <= 1;", 1)
	res := runAndCheck(t, bad, accuCols, accuRows())
	if !res.Failed() {
		t.Fatal("buggy accu did not trigger assertion failure")
	}
	f := res.FirstFailure()
	if f.Assert.Name != "valid_out_check_assertion" {
		t.Errorf("failure on %q", f.Assert.Name)
	}
	// end_cnt first true at cycle 4 (count==3), so valid_out must be 1 at
	// cycle 5; the bug forces it to 0 there.
	if f.StartCycle != 4 || f.FailCycle != 5 {
		t.Errorf("failure at start=%d fail=%d, want 4/5", f.StartCycle, f.FailCycle)
	}
}

func TestDisableIffSuppresses(t *testing.T) {
	// Force a "failure" during reset: without disable iff this would fire;
	// with it, reset cycles are skipped.
	src := `
module m (
    input clk,
    input rst_n,
    input a,
    output reg q
);
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) q <= 0;
        else q <= a;
    end
    p: assert property (@(posedge clk) disable iff (!rst_n) q == 0 || a == 1 || $past(a) == 1);
endmodule
`
	res := runAndCheck(t, src, "rst_n a", [][]uint64{
		{0, 0},
		{0, 0},
		{1, 1},
		{1, 1},
	})
	if res.Failed() {
		t.Fatalf("disable iff did not suppress reset-cycle checks: %v", res.Failures)
	}
}

func TestNonOverlapImplication(t *testing.T) {
	// req |=> ack : ack must be high the cycle after req.
	src := `
module m (
    input clk,
    input req,
    output reg ack
);
    always @(posedge clk) ack <= req;
    p: assert property (@(posedge clk) req |=> ack);
endmodule
`
	good := [][]uint64{{1}, {0}, {1}, {0}}
	res := runAndCheck(t, src, "req", good)
	if res.Failed() {
		t.Fatalf("correct handshake failed: %v", res.Failures)
	}

	// Broken version: ack delayed two cycles via an extra stage.
	bad := `
module m (
    input clk,
    input req,
    output reg ack
);
    reg mid;
    always @(posedge clk) begin
        mid <= req;
        ack <= mid;
    end
    p: assert property (@(posedge clk) req |=> ack);
endmodule
`
	res = runAndCheck(t, bad, "req", good)
	if !res.Failed() {
		t.Fatal("late ack not caught by |=>")
	}
}

func TestMultiTermSequence(t *testing.T) {
	// a |-> ##1 b ##2 c : b one cycle later, c three cycles after a.
	src := `
module m (
    input clk,
    input a,
    input b,
    input c,
    output q
);
    assign q = a;
    p: assert property (@(posedge clk) a |-> ##1 b ##2 c);
endmodule
`
	good := [][]uint64{
		{1, 0, 0},
		{0, 1, 0},
		{0, 0, 0},
		{0, 0, 1},
	}
	res := runAndCheck(t, src, "a b c", good)
	if res.Failed() {
		t.Fatalf("satisfying trace failed: %v", res.Failures)
	}
	bad := [][]uint64{
		{1, 0, 0},
		{0, 1, 0},
		{0, 0, 0},
		{0, 0, 0}, // c missing
	}
	res = runAndCheck(t, src, "a b c", bad)
	if !res.Failed() {
		t.Fatal("missing c not caught")
	}
	if f := res.FirstFailure(); f.FailCycle != 3 {
		t.Errorf("fail cycle = %d, want 3", f.FailCycle)
	}
}

func TestPendingAttemptsNotFailures(t *testing.T) {
	// Antecedent fires on the last cycle; the ##1 consequent runs off the
	// end of the trace and must be treated as pending, not failing.
	src := `
module m (
    input clk,
    input a,
    output reg q
);
    always @(posedge clk) q <= a;
    p: assert property (@(posedge clk) a |-> ##1 q);
endmodule
`
	res := runAndCheck(t, src, "a", [][]uint64{{0}, {1}})
	if res.Failed() {
		t.Fatalf("pending attempt counted as failure: %v", res.Failures)
	}
}

func TestPlainPropertyEveryCycle(t *testing.T) {
	src := `
module m (
    input clk,
    input [3:0] x,
    output q
);
    assign q = x < 10;
    p: assert property (@(posedge clk) x < 10);
endmodule
`
	res := runAndCheck(t, src, "x", [][]uint64{{3}, {9}, {12}})
	if !res.Failed() {
		t.Fatal("x=12 not caught")
	}
	if f := res.FirstFailure(); f.FailCycle != 2 {
		t.Errorf("fail cycle = %d, want 2", f.FailCycle)
	}
}

func TestSampledValueFunctions(t *testing.T) {
	src := `
module m (
    input clk,
    input rst_n,
    input en,
    output reg [3:0] cnt
);
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) cnt <= 0;
        else if (en) cnt <= cnt + 1;
    end
    p_step: assert property (@(posedge clk) disable iff (!rst_n)
        en |=> cnt == $past(cnt) + 1 || cnt == 0);
    p_stable: assert property (@(posedge clk) disable iff (!rst_n)
        !en |=> $stable(cnt));
endmodule
`
	res := runAndCheck(t, src, "rst_n en", [][]uint64{
		{0, 0},
		{1, 1},
		{1, 1},
		{1, 0},
		{1, 1},
	})
	if res.Failed() {
		t.Fatalf("sampled-value properties failed on correct design: %v", res.Failures)
	}
}

func TestFormatLog(t *testing.T) {
	bad := strings.Replace(accuGood, "else if (end_cnt) valid_out <= 1;", "else if (!end_cnt) valid_out <= 1;", 1)
	d := mustCompile(t, bad)
	tr, err := sim.RunVecCtx(context.Background(), d, vec(d, accuCols, accuRows()), sim.TwoState)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(tr)
	if err != nil {
		t.Fatal(err)
	}
	log := FormatLog("accu", tr, res.Failures)
	for _, want := range []string{
		"failed assertion accu.valid_out_check_assertion",
		"message: valid_out should be high when end_cnt high",
		"sampled values",
		"valid_out=0",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("log missing %q:\n%s", want, log)
		}
	}
	// Passing log.
	dGood := mustCompile(t, accuGood)
	trGood, err := sim.RunVecCtx(context.Background(), dGood, vec(dGood, accuCols, accuRows()), sim.TwoState)
	if err != nil {
		t.Fatal(err)
	}
	resGood, err := Check(trGood)
	if err != nil {
		t.Fatal(err)
	}
	passLog := FormatLog("accu", trGood, resGood.Failures)
	if !strings.Contains(passLog, "all assertions passed") {
		t.Errorf("pass log = %q", passLog)
	}
}

func TestAssertSignals(t *testing.T) {
	d := mustCompile(t, accuGood)
	sigs := AssertSignals(d.Asserts[0])
	want := []string{"end_cnt", "rst_n", "valid_out"}
	if len(sigs) != len(want) {
		t.Fatalf("signals = %v, want %v", sigs, want)
	}
	for i := range want {
		if sigs[i] != want[i] {
			t.Errorf("signals[%d] = %q, want %q", i, sigs[i], want[i])
		}
	}
}
