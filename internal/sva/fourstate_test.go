package sva

import (
	"context"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/sim"
)

// checkBoth4 runs a four-state check over both engines (compiled plan and
// reference interpreter) over the inputs named in cols, as vec does, and
// requires identical verdicts and logs.
func checkBoth4(t *testing.T, src, cols string, rows [][]uint64) *Result {
	t.Helper()
	d1, diags, err := compile.Compile(src)
	if err != nil || compile.HasErrors(diags) {
		t.Fatalf("compile: %v %v", err, diags)
	}
	d2, _, _ := compile.Compile(src)
	stim := vec(d1, cols, rows)
	tr1, err := sim.RunVecCtx(context.Background(), d1, stim, sim.FourState)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := sim.RunReferenceCtx(context.Background(), d2, stim, sim.FourState)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Check(tr1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Check(tr2)
	if err != nil {
		t.Fatal(err)
	}
	log1 := FormatLog(d1.Module.Name, tr1, r1.Failures)
	log2 := FormatLog(d2.Module.Name, tr2, r2.Failures)
	if log1 != log2 {
		t.Fatalf("plan and reference logs differ:\n--- plan ---\n%s--- reference ---\n%s", log1, log2)
	}
	if len(r1.Failures) != len(r2.Failures) {
		t.Fatalf("plan %d failures, reference %d", len(r1.Failures), len(r2.Failures))
	}
	for i := range r1.Failures {
		if r1.Failures[i].Unknown != r2.Failures[i].Unknown {
			t.Fatalf("failure %d Unknown differs between engines", i)
		}
	}
	return r1
}

// TestFourStateSVATable drives $isunknown, === and !== through properties
// on a design with an unreset register, in both engines.
func TestFourStateSVATable(t *testing.T) {
	base := `module m (
    input clk,
    input rst_n,
    input en
);
    reg [3:0] cnt;
    always @(posedge clk) begin
        if (en)
            cnt <= 4'd2;
    end
    %s
endmodule
`
	rows := [][]uint64{
		{0, 0},
		{0, 0},
		{1, 1},
		{1, 0},
	}
	tests := []struct {
		name      string
		property  string
		failures  int
		unknown   bool // first failure sampled x rather than known 0
		substring string
	}{
		{
			// $isunknown is known-true while cnt is x: a property asserting
			// "never unknown" fails with a known 0, not an x.
			name:     "isunknown-detects-x",
			property: `a1: assert property (@(posedge clk) !$isunknown(cnt));`,
			failures: 3, // cycles 0..2 sample x; cycle 3 samples known 2
			unknown:  false,
		},
		{
			// === compares both planes and is always known: x === x holds.
			name:     "caseeq-known-on-x",
			property: `a2: assert property (@(posedge clk) cnt === cnt);`,
			failures: 0,
		},
		{
			// !== with a constant: while cnt is x the comparison is known
			// true (x !== 4'd3), after the load cnt==2 still !== 3.
			name:     "casene-known",
			property: `a3: assert property (@(posedge clk) cnt !== 4'd3);`,
			failures: 0,
		},
		{
			// == with an x operand samples x: the consequent is not true,
			// so the attempt fails and is flagged Unknown.
			name:     "eq-x-fails-unknown",
			property: `a4: assert property (@(posedge clk) cnt == cnt);`,
			failures: 3,
			unknown:  true,
		},
		{
			// An x antecedent is undetermined: no match, no failure, and
			// the known-true attempts still count.
			name:     "x-antecedent-vacuous",
			property: `a5: assert property (@(posedge clk) (cnt == 4'd0) |-> 1'b0);`,
			failures: 0,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			src := strings.Replace(base, "%s", "    "+tt.property, 1)
			res := checkBoth4(t, src, "rst_n en", rows)
			if len(res.Failures) != tt.failures {
				t.Fatalf("%d failures, want %d: %v", len(res.Failures), tt.failures, res.Failures)
			}
			if tt.failures > 0 {
				if f := res.FirstFailure(); f.Unknown != tt.unknown {
					t.Errorf("first failure Unknown = %v, want %v (%s)", f.Unknown, tt.unknown, f)
				}
			}
		})
	}
}

// TestFourStateLogMarksX: the failure log renders x sampled values as x,
// and an unknown failing term reads "is x".
func TestFourStateLogMarksX(t *testing.T) {
	src := `module m (
    input clk,
    input en
);
    reg [3:0] cnt;
    always @(posedge clk) begin
        if (en)
            cnt <= 4'd2;
    end
    a: assert property (@(posedge clk) cnt == 4'd2);
endmodule
`
	res := checkBoth4(t, src, "en", [][]uint64{{0}, {1}})
	if len(res.Failures) == 0 {
		t.Fatal("expected failures")
	}
	f := res.FirstFailure()
	if !f.Unknown {
		t.Errorf("failure not marked Unknown: %s", f)
	}
	if !strings.Contains(f.String(), "is x") {
		t.Errorf("failure string does not mark x: %s", f)
	}
}
