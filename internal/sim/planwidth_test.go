package sim

import (
	"context"
	"testing"

	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/verilog"
)

// TestStaticWidthAgreesWithExprWidth pins the planner's compile-time width
// oracle to the interpreter's ExprWidth over every expression of every
// corpus design: whenever staticWidth claims a width is decidable, it must
// be the width the interpreter computes at runtime. Drift between the two
// would silently diverge the compiled and interpretive backends' masking.
func TestStaticWidthAgreesWithExprWidth(t *testing.T) {
	for _, bp := range corpus.Catalog() {
		d, diags, err := compile.Compile(bp.Source())
		if err != nil || compile.HasErrors(diags) || d == nil {
			t.Fatalf("%s: fixture broken", bp.Name())
		}
		s, err := New(d)
		if err != nil {
			t.Fatalf("%s: %v", bp.Name(), err)
		}
		env := simEnv{s: s}
		c := &planCompiler{d: d}
		check := func(e verilog.Expr) {
			verilog.WalkExpr(e, func(sub verilog.Expr) {
				w, ok := c.staticWidth(sub)
				if !ok {
					return
				}
				if got := ExprWidth(sub, env); got != w {
					t.Errorf("%s: staticWidth(%s)=%d but ExprWidth=%d",
						bp.Name(), verilog.ExprString(sub), w, got)
				}
			})
		}
		for _, as := range d.Assigns {
			check(as.LHS)
			check(as.RHS)
		}
		for _, al := range append(append([]*verilog.Always{}, d.CombAlways...), d.SeqAlways...) {
			verilog.WalkStmt(al.Body, func(st verilog.Stmt) {
				verilog.StmtExprs(st, check)
			})
		}
		for i := range d.Asserts {
			a := &d.Asserts[i]
			if a.DisableIff != nil {
				check(a.DisableIff)
			}
			if a.Seq != nil {
				for _, tm := range a.Seq.Antecedent {
					check(tm.Expr)
				}
				for _, tm := range a.Seq.Consequent {
					check(tm.Expr)
				}
			}
		}
	}
}

// The compiled Index evaluation must evaluate its base expression before
// the index short-circuit, so error effects (here: an invalid slice as the
// base) are identical on both backends.
func TestIndexBaseEvaluatedBeforeShortCircuit(t *testing.T) {
	src := `
module ix (
    input [7:0] v,
    output y
);
    assign y = v[70:64][100];
endmodule
`
	d := mustCompile(t, src)
	_, errPlan := Run(context.Background(), d, Stimulus{{"v": 1}}, TwoState)
	_, errRef := RunReferenceCtx(context.Background(), mustCompile(t, src), Stimulus{{"v": 1}}, TwoState)
	if errPlan == nil || errRef == nil {
		t.Fatalf("invalid slice must fail on both backends: plan=%v reference=%v", errPlan, errRef)
	}
}
