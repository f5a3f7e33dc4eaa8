package vcd

import (
	"context"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/sim"
)

// fourStateTrace builds a trace with unknown bits: an unreset 4-bit
// register plus a known input.
func fourStateTrace(t *testing.T) *sim.Trace {
	t.Helper()
	src := `module m (
    input clk,
    input en,
    output [3:0] q
);
    reg [3:0] cnt;
    always @(posedge clk) begin
        if (en)
            cnt <= 4'b0101;
    end
    assign q = cnt;
endmodule
`
	d, diags, err := compile.Compile(src)
	if err != nil || compile.HasErrors(diags) {
		t.Fatalf("compile: %v %v", err, diags)
	}
	tr, err := sim.RunVecCtx(context.Background(), d, column(d, "en", 0, 1, 0), sim.FourState)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestWriteFourStateX: unknown bits emit 'x' value characters, vectors stay
// zero-padded to the declared $var width, and once the register resolves
// the known value replaces the x word.
func TestWriteFourStateX(t *testing.T) {
	tr := fourStateTrace(t)
	out, err := Strings(tr, Options{Signals: []string{"cnt", "en"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "$var reg 4 ! cnt [3:0] $end") {
		t.Fatalf("missing cnt $var declaration:\n%s", out)
	}
	// Cycle 0: cnt is fully unknown, padded to 4 value characters.
	if !strings.Contains(out, "bxxxx !") {
		t.Errorf("initial all-x vector not emitted as bxxxx:\n%s", out)
	}
	// Cycle 2 (after the enabled edge): the known value replaces it.
	if !strings.Contains(out, "b0101 !") {
		t.Errorf("resolved value b0101 not emitted:\n%s", out)
	}
	// No malformed vector words: every b-word must be exactly width 4.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "b") {
			word := strings.SplitN(line[1:], " ", 2)[0]
			if len(word) != 4 {
				t.Errorf("vector %q not padded to $var width 4", line)
			}
		}
	}
}

// TestWriteFourStateScalarX: a 1-bit unknown emits the bare x character.
func TestWriteFourStateScalarX(t *testing.T) {
	src := `module m (
    input clk,
    output q
);
    reg q0;
    assign q = q0;
endmodule
`
	d, diags, err := compile.Compile(src)
	if err != nil || compile.HasErrors(diags) {
		t.Fatalf("compile: %v %v", err, diags)
	}
	tr, err := sim.RunVecCtx(context.Background(), d, sim.VecStimulus{Rows: [][]uint64{{}}}, sim.FourState)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Strings(tr, Options{Signals: []string{"q0"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "x!") {
		t.Errorf("scalar x value character not emitted:\n%s", out)
	}
}

// TestWriteTwoStateUnchanged: a two-state trace of the same design never
// contains x value characters.
func TestWriteTwoStateUnchanged(t *testing.T) {
	trSrc := fourStateTrace(t)
	tr, err := sim.RunVecCtx(context.Background(), trSrc.Design, column(trSrc.Design, "en", 0, 1, 0), sim.TwoState)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Strings(tr, Options{Signals: []string{"cnt", "en"}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "x") {
		t.Errorf("two-state dump contains x characters:\n%s", out)
	}
}
