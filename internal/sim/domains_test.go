package sim

import (
	"context"
	"testing"

	"repro/internal/compile"
)

// twoClockSrc crosses a bit from a posedge clk_a register into a posedge
// clk_b register — the smallest design with two independent domains.
const twoClockSrc = `
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
endmodule
`

// TestMultiClockFunctional drives an explicit two-clock schedule and checks
// the hand-computed register evolution and the recorded fired masks: each
// register only moves at its own clock's posedges.
func TestMultiClockFunctional(t *testing.T) {
	d := mustCompile(t, twoClockSrc)
	if !d.MultiClock() {
		t.Fatalf("cross not multi-clock: %v", d.Domains)
	}
	stim := crossSchedule(d)
	tr, err := RunVecCtx(context.Background(), d, stim, TwoState)
	if err != nil {
		t.Fatal(err)
	}
	wantQA := []uint64{0, 0, 1, 1, 1, 1, 0, 0}
	wantQB := []uint64{0, 0, 0, 1, 1, 1, 1, 0}
	wantFired := []uint64{0, 1, 2, 1, 0, 1, 2, 1}
	for c := range stim.Rows {
		qa, _ := tr.Value(c, "qa")
		qb, _ := tr.Value(c, "qb")
		if qa != wantQA[c] || qb != wantQB[c] {
			t.Errorf("cycle %d: qa=%d qb=%d, want qa=%d qb=%d", c, qa, qb, wantQA[c], wantQB[c])
		}
		if got := tr.Fired(c); got != wantFired[c] {
			t.Errorf("cycle %d: fired=%b, want %b", c, got, wantFired[c])
		}
	}
}

// crossSchedule drives twoClockSrc with clk_a toggling every row and clk_b
// every second row.
func crossSchedule(d *compile.Design) VecStimulus {
	clkA := []uint64{0, 1, 0, 1, 0, 1, 0, 1}
	clkB := []uint64{0, 0, 1, 1, 0, 0, 1, 1}
	din := []uint64{1, 1, 1, 1, 0, 0, 0, 0}
	stim := vec(d, "clk_a clk_b rst_n d", make([][]uint64, len(clkA)))
	for c := range stim.Rows {
		stim.Rows[c] = []uint64{clkA[c], clkB[c], 1, din[c]}
	}
	return stim
}

// TestReferenceBranchesMultiClock holds the branch-recording reference run
// to the plain reference run on a two-clock design in both value domains:
// same rows, same unknown planes, same fired masks. The lint-vs-sim oracle
// reads its traces, so it must clock domains exactly as every other engine.
func TestReferenceBranchesMultiClock(t *testing.T) {
	d := mustCompile(t, twoClockSrc)
	stim := crossSchedule(d)
	for _, mode := range []Mode{TwoState, FourState} {
		want, err := RunReferenceCtx(context.Background(), d, stim, mode)
		if err != nil {
			t.Fatal(err)
		}
		got, cov, err := RunReferenceBranches(d, stim, mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(cov) == 0 {
			t.Fatalf("mode %v: no branch coverage recorded", mode)
		}
		diffTraces(t, got, want, mode, 0, "branches vs reference")
	}
}

// TestMultiClockNegedge checks that posedge and negedge domains of the same
// clock signal fire on opposite transitions.
func TestMultiClockNegedge(t *testing.T) {
	d := mustCompile(t, `
module ddr (input clk, input d, output reg qp, output reg qn);
    always @(posedge clk)
        qp <= d;
    always @(negedge clk)
        qn <= d;
endmodule
`)
	if len(d.Domains) != 2 {
		t.Fatalf("domains = %v, want posedge clk + negedge clk", d.Domains)
	}
	clk := []uint64{0, 1, 0, 1}
	din := []uint64{1, 1, 1, 0}
	stim := vec(d, "clk d", make([][]uint64, len(clk)))
	for c := range stim.Rows {
		stim.Rows[c] = []uint64{clk[c], din[c]}
	}
	tr, err := RunVecCtx(context.Background(), d, stim, TwoState)
	if err != nil {
		t.Fatal(err)
	}
	wantQP := []uint64{0, 0, 1, 1}
	wantQN := []uint64{0, 0, 0, 1}
	for c := range stim.Rows {
		qp, _ := tr.Value(c, "qp")
		qn, _ := tr.Value(c, "qn")
		if qp != wantQP[c] || qn != wantQN[c] {
			t.Errorf("cycle %d: qp=%d qn=%d, want qp=%d qn=%d", c, qp, qn, wantQP[c], wantQN[c])
		}
	}
}

// TestSingleClockFiredNil checks that single-domain traces keep the classic
// model: no fired plane is recorded and Fired reports every domain.
func TestSingleClockFiredNil(t *testing.T) {
	d := mustCompile(t, counterSrc)
	tr, err := RunVecCtx(context.Background(), d, vec(d, "rst_n en", [][]uint64{{1, 1}, {1, 1}}), TwoState)
	if err != nil {
		t.Fatal(err)
	}
	if tr.fired != nil {
		t.Fatalf("single-clock trace recorded a fired plane: %v", tr.fired)
	}
	if tr.Fired(0) != firedAll {
		t.Fatalf("Fired(0) = %x, want all-ones", tr.Fired(0))
	}
}

// multiClockVecStim builds a deterministic seeded stimulus for the cross
// design: alternating clk_a, period-4 clk_b, LCG data/reset bits.
func multiClockVecStim(d *compile.Design, seed uint64, depth int) VecStimulus {
	names := []string{"clk_a", "clk_b", "rst_n", "d"}
	inputs := make([]*compile.Signal, len(names))
	for i, n := range names {
		inputs[i] = d.Signals[n]
	}
	rows := make([][]uint64, depth)
	x := seed*2862933555777941757 + 3037000493
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33
	}
	for c := range rows {
		r := next()
		rows[c] = []uint64{
			uint64(c) & 1,                      // clk_a alternates
			uint64(c) >> 1 & 1,                 // clk_b half rate
			1 &^ (r >> 7 & 1 & boolU64(c < 2)), // occasional reset early on
			r & 1,
		}
	}
	return VecStimulus{Inputs: inputs, Rows: rows}
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestMultiClockDifferential holds both engines byte-identical on the
// two-clock design in both value domains: compiled plan vs reference
// interpreter, and one VecRunner reused across every stimulus (every other
// trace detached and rechecked after the later runs) vs one-shot runs,
// including the recorded fired planes.
func TestMultiClockDifferential(t *testing.T) {
	d := mustCompile(t, twoClockSrc)
	const depth, n = 32, 8
	stims := make([]VecStimulus, n)
	for i := range stims {
		stims[i] = multiClockVecStim(d, uint64(i)+1, depth)
	}
	for _, mode := range []Mode{TwoState, FourState} {
		scalar := make([]*Trace, n)
		runner := NewVecRunner(d, mode)
		detached := make([]*Trace, n)
		for i, vs := range stims {
			pt, err := RunVecCtx(context.Background(), d, vs, mode)
			if err != nil {
				t.Fatalf("mode %v stimulus %d plan: %v", mode, i, err)
			}
			rt, err := RunReferenceCtx(context.Background(), d, vs, mode)
			if err != nil {
				t.Fatalf("mode %v stimulus %d reference: %v", mode, i, err)
			}
			diffTraces(t, pt, rt, mode, i, "plan vs reference")
			reused, err := runner.Run(context.Background(), vs)
			if err != nil {
				t.Fatalf("mode %v stimulus %d reused runner: %v", mode, i, err)
			}
			diffTraces(t, reused, pt, mode, i, "reused runner vs one-shot")
			if i%2 == 1 {
				runner.Detach()
				detached[i] = reused
			}
			scalar[i] = pt
		}
		for i, tr := range detached {
			if tr != nil {
				diffTraces(t, tr, scalar[i], mode, i, "detached trace after later runs vs one-shot")
			}
		}
	}
}

func diffTraces(t *testing.T, a, b *Trace, mode Mode, stim int, what string) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("mode %v stimulus %d %s: length %d vs %d", mode, stim, what, a.Len(), b.Len())
	}
	for c := 0; c < a.Len(); c++ {
		if a.Fired(c) != b.Fired(c) {
			t.Fatalf("mode %v stimulus %d %s: cycle %d fired %b vs %b",
				mode, stim, what, c, a.Fired(c), b.Fired(c))
		}
		for _, name := range a.Design.Order {
			av, _ := a.Value4(c, name)
			bv, _ := b.Value4(c, name)
			if av != bv {
				t.Fatalf("mode %v stimulus %d %s: cycle %d signal %s: %v vs %v",
					mode, stim, what, c, name, av, bv)
			}
		}
	}
}
