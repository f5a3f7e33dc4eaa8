package formal

import (
	"context"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/corpus"
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

const counterGood = `
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
    p_wrap: assert property (@(posedge clk) disable iff (!rst_n) wrap && en |=> count == 0);
    p_bound: assert property (@(posedge clk) disable iff (!rst_n) count <= MAX);
endmodule
`

func TestCheckGoodDesignPasses(t *testing.T) {
	d := mustCompile(t, counterGood)
	res, err := Check(context.Background(), d, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("good counter failed:\n%s", res.Log)
	}
	if len(res.VacuousAsserts) != 0 {
		t.Errorf("vacuous asserts on good design: %v", res.VacuousAsserts)
	}
	if !strings.Contains(res.Log, "all assertions passed") {
		t.Errorf("pass log = %q", res.Log)
	}
}

func TestCheckFindsWrapBug(t *testing.T) {
	// Off-by-one: wrap at MAX-1 comparison changed to <; count can exceed
	// MAX, violating p_bound.
	bad := strings.Replace(counterGood, "assign wrap = count == MAX;", "assign wrap = count == MAX + 1;", 1)
	d := mustCompile(t, bad)
	res, err := Check(context.Background(), d, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Fatal("wrap bug not found")
	}
	if res.Failure == nil || res.Trace == nil {
		t.Fatal("missing counterexample")
	}
	if !strings.Contains(res.Log, "failed assertion counter.") {
		t.Errorf("log = %q", res.Log)
	}
}

func TestCheckFindsConditionInversion(t *testing.T) {
	bad := strings.Replace(counterGood, "else if (en) begin", "else if (!en) begin", 1)
	d := mustCompile(t, bad)
	res, err := Check(context.Background(), d, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Fatal("condition inversion not found")
	}
}

func TestExhaustiveStrategyForTinyInputs(t *testing.T) {
	// Single 1-bit input, no reset: 1 bit x depth <= MaxExhaustiveBits when
	// depth is small, so sequences are enumerated exhaustively.
	src := `
module toggle (
    input clk,
    input t,
    output reg q
);
    always @(posedge clk) begin
        if (t) q <= !q;
    end
    p: assert property (@(posedge clk) t |=> q != $past(q));
endmodule
`
	d := mustCompile(t, src)
	res, err := Check(context.Background(), d, Options{Depth: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "exhaustive-sequences" {
		t.Errorf("strategy = %q, want exhaustive-sequences", res.Strategy)
	}
	if !res.Pass {
		t.Fatalf("toggle failed:\n%s", res.Log)
	}
	if res.Runs != 1<<8 {
		t.Errorf("runs = %d, want 256", res.Runs)
	}
}

func TestExhaustiveCatchesRareSequence(t *testing.T) {
	// Bug only fires after the exact sequence 1,1,0 on a 1-bit input —
	// exhaustive enumeration must find it.
	src := `
module seqbug (
    input clk,
    input d,
    output reg [2:0] hist,
    output reg flag
);
    always @(posedge clk) begin
        hist <= {hist[1:0], d};
        if ({hist[1:0], d} == 3'b110) flag <= 1;
    end
    p: assert property (@(posedge clk) flag == 0);
endmodule
`
	d := mustCompile(t, src)
	res, err := Check(context.Background(), d, Options{Depth: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Fatal("rare sequence bug not found by exhaustive search")
	}
}

func TestVacuousAssertReported(t *testing.T) {
	src := `
module vac (
    input clk,
    input [3:0] a,
    output q
);
    assign q = a[0];
    p: assert property (@(posedge clk) a == 5'd16 |-> q);
endmodule
`
	// a is 4 bits (max 15): a == 16 can never match, so the property is
	// vacuous.
	d := mustCompile(t, src)
	res, err := Check(context.Background(), d, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("vacuous property failed: %s", res.Log)
	}
	if len(res.VacuousAsserts) != 1 || res.VacuousAsserts[0] != "p" {
		t.Errorf("vacuous = %v, want [p]", res.VacuousAsserts)
	}
}

func TestDifferDetectsFunctionalBug(t *testing.T) {
	golden := mustCompile(t, counterGood)
	bad := strings.Replace(counterGood, "count <= count + 1;", "count <= count + 2;", 1)
	mutant := mustCompile(t, bad)
	diff, log, err := Differ(context.Background(), golden, mutant, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !diff {
		t.Fatal("behavioural difference not detected")
	}
	if !strings.Contains(log, "count") {
		t.Errorf("diff log = %q", log)
	}
}

func TestDifferIgnoresEquivalentMutation(t *testing.T) {
	golden := mustCompile(t, counterGood)
	// Semantically identical rewrite: en && wrap vs wrap && en via property
	// ordering does not change outputs; simpler: rewrite count <= count + 1
	// as count <= 1 + count.
	same := strings.Replace(counterGood, "count <= count + 1;", "count <= 1 + count;", 1)
	mutant := mustCompile(t, same)
	diff, _, err := Differ(context.Background(), golden, mutant, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if diff {
		t.Fatal("equivalent mutation flagged as differing")
	}
}

func TestCheckDeterministic(t *testing.T) {
	bad := strings.Replace(counterGood, "count <= count + 1;", "count <= count + 2;", 1)
	d := mustCompile(t, bad)
	r1, err := Check(context.Background(), d, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Check(context.Background(), d, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Pass != r2.Pass || r1.Runs != r2.Runs || r1.Log != r2.Log {
		t.Error("Check is not deterministic for a fixed seed")
	}
}

// TestEnumerationCapsStopBelowWordWidth: a 64-bit enumeration space is
// 1<<64 runs, which wraps to 0 in the run counter. Both caps clamp to 63,
// so a check whose space is 64 bits wide never enumerates zero stimuli:
// before the clamp, EdgeDetect's one input bit at depth 64 passed as
// "exhaustive-sequences" over no runs, and a 64-bit input ran an empty
// constant phase under its label.
func TestEnumerationCapsStopBelowWordWidth(t *testing.T) {
	n := (Options{MaxExhaustiveBits: 64, MaxConstBits: 1000}).Normalized()
	if n.MaxExhaustiveBits != 63 || n.MaxConstBits != 63 {
		t.Fatalf("caps normalised to %d and %d, want 63 and 63", n.MaxExhaustiveBits, n.MaxConstBits)
	}
	d := mustCompile(t, corpus.EdgeDetect().Source())
	res, err := Check(context.Background(), d, Options{Seed: 1, Depth: 64, MaxExhaustiveBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass || res.Runs == 0 || res.Strategy != "directed+const+random" {
		t.Fatalf("depth-64 check: pass=%v strategy=%q runs=%d, want a directed+const+random pass over some runs",
			res.Pass, res.Strategy, res.Runs)
	}
	wide := mustCompile(t, `
module wide (input clk, input rst_n, input [63:0] a, output [63:0] y);
    assign y = a;
    p_y: assert property (@(posedge clk) disable iff (!rst_n) y == a);
endmodule
`)
	res, err = Check(context.Background(), wide, Options{Seed: 1, Depth: 8, RandomRuns: NoRandom, MaxConstBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass || res.Strategy != "directed+random" {
		t.Fatalf("64-bit input: pass=%v strategy=%q runs=%d, want a directed+random pass (no constant phase)",
			res.Pass, res.Strategy, res.Runs)
	}
}

// TestNoRandomDisablesRandomPhase pins the zero-value Options fix: zero
// RandomRuns keeps the 48-run default, while the NoRandom sentinel —
// previously unrequestable, since non-positive values were silently
// rewritten — turns the random phase off entirely. The run counts of two
// otherwise identical directed+random checks must differ by exactly the
// random budget.
func TestNoRandomDisablesRandomPhase(t *testing.T) {
	if got := (Options{}).Normalized().RandomRuns; got != 48 {
		t.Errorf("default RandomRuns = %d, want 48", got)
	}
	// Any negative value is NoRandom, and the normalized form keeps the
	// sentinel, so normalizing twice cannot turn the phase back on.
	if got := (Options{RandomRuns: -5}).Normalized(); got.RandomRuns != NoRandom || got.Normalized() != got {
		t.Errorf("RandomRuns -5 normalized to %d, then to %d; want NoRandom both times", got.RandomRuns, got.Normalized().RandomRuns)
	}
	// Cache-key stability: the zero-value mapping is untouched, so verify
	// entries cached under the old defaulting still resolve identically.
	if (Options{}).Normalized() != (Options{RandomRuns: 48}).Normalized() {
		t.Error("zero-value normalization changed; cached keys would be orphaned")
	}

	// counterGood has a 1-bit enable: force the directed+random strategy by
	// shrinking the exhaustive/const budgets, then compare run counts.
	d := mustCompile(t, counterGood)
	base := Options{Seed: 1, Depth: 10, MaxExhaustiveBits: 1, MaxConstBits: 1}

	withRandom := base
	withRandom.RandomRuns = 5
	r1, err := Check(context.Background(), d, withRandom)
	if err != nil {
		t.Fatal(err)
	}
	noRandom := base
	noRandom.RandomRuns = NoRandom
	r2, err := Check(context.Background(), d, noRandom)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Pass || !r2.Pass {
		t.Fatalf("good design failed: random=%v norandom=%v", r1.Pass, r2.Pass)
	}
	if r1.Runs-r2.Runs != 5 {
		t.Errorf("run counts %d vs %d: want exactly the 5 random runs apart", r1.Runs, r2.Runs)
	}
}

// crossClocked latches d into the clk_a domain and re-latches into the
// clk_b domain. The property states the crossing invariant in the clk_b
// domain: whatever qa holds at a clk_b posedge appears in qb one clk_b
// tick later.
const crossClocked = `
module cross (
    input clk_a,
    input clk_b,
    input rst_n,
    input d,
    output reg qa,
    output reg qb
);
    always @(posedge clk_a or negedge rst_n) begin
        if (!rst_n)
            qa <= 0;
        else
            qa <= d;
    end
    always @(posedge clk_b or negedge rst_n) begin
        if (!rst_n)
            qb <= 0;
        else
            qb <= qa;
    end
    p_sync: assert property (@(posedge clk_b) disable iff (!rst_n) qa |=> qb);
endmodule
`

// TestMultiClockFormalPasses drives the two-clock crossing design through
// the interleaved clock schedules: the domain clocks are pulled out of the
// enumerated inputs, so the search space is the 1-bit data input only and
// the true property must survive exhaustive sequence enumeration without
// being vacuous.
func TestMultiClockFormalPasses(t *testing.T) {
	d := mustCompile(t, crossClocked)
	if !d.MultiClock() {
		t.Fatalf("cross not multi-clock: %v", d.Domains)
	}
	res, err := Check(context.Background(), d, Options{Seed: 1, Depth: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "exhaustive-sequences" {
		t.Errorf("strategy = %q, want exhaustive-sequences (clocks must not count as enumerated inputs)", res.Strategy)
	}
	if !res.Pass {
		t.Fatalf("true crossing property failed:\n%s", res.Log)
	}
	if len(res.VacuousAsserts) != 0 {
		t.Errorf("vacuous asserts: %v (clk_b ticks should sample a matched antecedent)", res.VacuousAsserts)
	}
}

// TestMultiClockFormalFindsBug flips the consequent: qa high at a clk_b
// tick must now be followed by qb low, which the design contradicts one
// tick later. The counterexample requires aligning a data pulse with the
// slower clock's edge — only reachable if the clock schedules interleave.
func TestMultiClockFormalFindsBug(t *testing.T) {
	bad := strings.Replace(crossClocked, "qa |=> qb", "qa |=> !qb", 1)
	d := mustCompile(t, bad)
	res, err := Check(context.Background(), d, Options{Seed: 1, Depth: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Fatal("false crossing property not refuted")
	}
	if res.Failure == nil || res.Trace == nil {
		t.Fatal("missing counterexample")
	}
	if !strings.Contains(res.Log, "failed assertion cross.p_sync") {
		t.Errorf("log = %q", res.Log)
	}
}
