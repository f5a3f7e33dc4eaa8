package sim

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bugs"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/verilog"
)

// checkPlans fails t when src compiles but has no plan in both value
// domains, lowers an expression with a width other than ExprWidth's, or
// a four-cycle run of it on the plan reports a plan error. It reports
// whether src compiled.
func checkPlans(t testing.TB, name, src string) bool {
	t.Helper()
	d, diags, err := compile.Compile(src)
	if err != nil || compile.HasErrors(diags) {
		return false
	}
	p, err := planOf(d)
	if err == nil {
		_, err = p.fourState()
	}
	if err != nil {
		t.Errorf("%s compiles but has no plan in both value domains: %v", name, err)
		return true
	}
	checkWidths(t, name, d, designEnv{d})
	stim := rampStimulus(d, 4)
	for _, mode := range []Mode{TwoState, FourState} {
		var u errUnplannable
		if _, err := RunVecCtx(context.Background(), d, stim, mode); errors.As(err, &u) {
			t.Errorf("%s compiles but its %v run reports a plan error: %v", name, mode, err)
		}
	}
	return true
}

// checkWidths holds the planner's widths to the interpreter's ExprWidth:
// every subexpression of d's assignments, statements and assertions,
// constant bounds, counts and $past depths included, must lower on its
// own with the width ExprWidth gives it, and every assignment target must
// store that many bits. A drift between the two would silently diverge
// the plan's masking from the reference's. Names resolve through env:
// designEnv checks a design the reference simulator refuses to construct
// too, and a simulator's own environment checks the widths it resolves
// as it runs.
func checkWidths(t testing.TB, name string, d *compile.Design, env Env) {
	t.Helper()
	f := &lowerer{d: d, em: planEmitters[TwoState]}
	expr := func(e verilog.Expr) {
		verilog.WalkExpr(e, func(sub verilog.Expr) {
			_, got := f.expr(sub)
			if want := ExprWidth(sub, env); got != want {
				t.Errorf("%s: %s lowers %d bits wide, ExprWidth %d", name, verilog.ExprString(sub), got, want)
			}
		})
	}
	target := func(lhs, rhs verilog.Expr) {
		_, got := f.store(lhs, wComb)
		if want := ExprWidth(lhs, env); got != want {
			t.Errorf("%s: target %s stores %d bits, ExprWidth %d", name, verilog.ExprString(lhs), got, want)
		}
		expr(lhs)
		expr(rhs)
	}
	for _, as := range d.Assigns {
		target(as.LHS, as.RHS)
	}
	for _, al := range append(append([]*verilog.Always{}, d.CombAlways...), d.SeqAlways...) {
		verilog.WalkStmt(al.Body, func(st verilog.Stmt) {
			switch x := st.(type) {
			case *verilog.Blocking:
				target(x.LHS, x.RHS)
			case *verilog.NonBlocking:
				target(x.LHS, x.RHS)
			default:
				verilog.StmtExprs(st, expr)
			}
		})
	}
	for i := range d.Asserts {
		a := &d.Asserts[i]
		expr(a.DisableIff)
		if a.Seq != nil {
			for _, tm := range a.Seq.Antecedent {
				expr(tm.Expr)
			}
			for _, tm := range a.Seq.Consequent {
				expr(tm.Expr)
			}
		}
	}
}

// designEnv resolves names for ExprWidth from a design alone: a parameter
// has its value, and a signal its declared width.
type designEnv struct{ d *compile.Design }

func (e designEnv) Value(name string) (uint64, bool) {
	v, ok := e.d.Params[name]
	return v, ok
}

func (e designEnv) Width(name string) int {
	if sig := e.d.Signals[name]; sig != nil {
		return sig.Width
	}
	return 0
}

// rampStimulus drives every input of d, clocks included, for n cycles:
// input i at cycle c with c+i.
func rampStimulus(d *compile.Design, n int) VecStimulus {
	stim := VecStimulus{Inputs: d.Inputs(false), Rows: make([][]uint64, n)}
	for c := range stim.Rows {
		stim.Rows[c] = make([]uint64, len(stim.Inputs))
		for i := range stim.Rows[c] {
			stim.Rows[c][i] = uint64(c + i)
		}
	}
	return stim
}

// regressionPrograms returns internal/fuzz's committed regression programs
// by file name.
func regressionPrograms(t testing.TB) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "fuzz", "testdata", "regressions", "*.v"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("fuzz regression corpus: %v (%d files)", err, len(paths))
	}
	out := map[string]string{}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = string(src)
	}
	return out
}

// TestCompilesImpliesPlans: every design internal/compile accepts has a
// plan in both value domains, so no run needs a second engine. It covers
// every catalog golden, every mutant bugs.Enumerate makes of one, and
// every regression-corpus program that compiles.
func TestCompilesImpliesPlans(t *testing.T) {
	var compiled, rejected int
	check := func(name, src string) {
		if checkPlans(t, name, src) {
			compiled++
		} else {
			rejected++
		}
	}
	for _, bp := range corpus.Catalog() {
		check(bp.Name(), bp.Source())
		for _, mu := range bugs.Enumerate(bp.Module, 0) {
			check(bp.Name()+"/"+mu.Label(), bp.SourceWith(mu.Mutant))
		}
	}
	for name, src := range regressionPrograms(t) {
		check(name, src)
	}
	t.Logf("%d designs compile and plan; %d do not compile", compiled, rejected)
}

// FuzzCompileImpliesPlan is TestCompilesImpliesPlans over raw source text,
// seeded with the catalog goldens and the regression programs: whatever
// compiles has a plan in both value domains and runs four cycles on it
// without a plan error, and neither compiling nor planning panics.
// cmd/serve's /check and /stimulus compile untrusted source, so this
// guards the lowering's recover boundary.
func FuzzCompileImpliesPlan(f *testing.F) {
	for _, bp := range corpus.Catalog() {
		f.Add(bp.Source())
	}
	for _, src := range regressionPrograms(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkPlans(t, "the source", src)
	})
}

// FuzzConstFold holds compile.Fold, the constant folder internal/compile,
// the planner and internal/lint share, to the reference interpreter's Eval
// over the same names: on random constant expressions over the folder's
// operator set the two agree on whether the expression folds and on its
// value, and whatever compile.FoldKnown folds Eval4 evaluates to the same
// fully known value. The leaves include shift counts of 64 and more,
// unsized literals under ~ and unary -, a parameter wider than 32 bits, a
// zero divisor, a 5-bit name, an x-bearing literal and an undeclared name;
// concatenations and replications nest among the operators.
func FuzzConstFold(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for range 64 {
		seed := make([]byte, 48)
		rng.Read(seed)
		f.Add(seed)
	}
	// {S, 4'd3}, {3{S}}, ~(0 ? {nosuch{S}} : 1), {{Z{S}}, 4'd3} and {S, 4'b0x01}.
	f.Add([]byte{68, 1, 11, 3, 4, 3})
	f.Add([]byte{69, 0, 3, 11, 3})
	f.Add([]byte{65, 1, 67, 0, 0, 69, 15, 0, 11, 3, 0, 1})
	f.Add([]byte{68, 1, 69, 11, 2, 11, 3, 4, 3})
	f.Add([]byte{68, 1, 11, 3, 10, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		e := (&constExpr{data: data}).expr(5)
		want, err := Eval(e, constNames{})
		got, ok := compile.Fold(e, constNames{})
		if ok != (err == nil) || ok && got != want {
			t.Fatalf("%s: compile.Fold = %#x, %v; Eval = %#x, %v", verilog.ExprString(e), got, ok, want, err)
		}
		if v, ok := compile.FoldKnown(e, constNames{}); ok {
			if want4, err := Eval4(e, constNames{}); err != nil || want4 != known(v) {
				t.Fatalf("%s: compile.FoldKnown = %#x; Eval4 = %v, %v", verilog.ExprString(e), v, want4, err)
			}
		}
	})
}

// constValues are the names FuzzConstFold folds over: a small parameter,
// one wider than 32 bits, a zero divisor and S, a 5-bit name such as a
// signal internal/lint proved constant.
var constValues = map[string]uint64{"P": 6, "W": 1<<40 | 5, "Z": 0, "S": 0x13}

// constNames serves constValues to both sides of FuzzConstFold, as a
// compile.Names and as an Env: S is 5 bits wide, every other name 32.
type constNames struct{}

func (constNames) Value(name string) (uint64, bool) {
	v, ok := constValues[name]
	return v, ok
}

func (constNames) Width(name string) int {
	if name == "S" {
		return 5
	}
	return 0
}

func (e constNames) Lookup(name string) (uint64, int, bool) {
	v, ok := e.Value(name)
	return v, cmp.Or(e.Width(name), 32), ok
}

// constExpr builds a constant expression from a byte stream, one byte per
// decision, so the fuzzer's mutations steer the expression's shape.
type constExpr struct{ data []byte }

func (g *constExpr) next() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *constExpr) expr(depth int) verilog.Expr {
	b := g.next()
	if depth == 0 || b < 64 {
		return g.leaf(b)
	}
	switch b % 5 {
	case 0:
		return &verilog.Unary{Op: verilog.UnaryOp(g.next() % 8), X: g.expr(depth - 1)}
	case 1:
		return &verilog.Binary{Op: verilog.BinaryOp(g.next() % 22), X: g.expr(depth - 1), Y: g.expr(depth - 1)}
	case 2:
		return &verilog.Ternary{Cond: g.expr(depth - 1), X: g.expr(depth - 1), Y: g.expr(depth - 1)}
	case 3:
		elems := make([]verilog.Expr, g.next()%3+1)
		for i := range elems {
			elems[i] = g.expr(depth - 1)
		}
		return &verilog.Concat{Elems: elems}
	}
	return &verilog.Repl{Count: g.expr(depth - 1), Elem: g.expr(depth - 1)}
}

func (g *constExpr) leaf(b byte) verilog.Expr {
	v := g.next()
	switch b % 16 {
	case 0, 1, 2, 3: // unsized, up to shift counts past 64
		return &verilog.Number{Value: uint64(v % 80)}
	case 4, 5, 6: // sized, 1 to 64 bits
		w := int(v%64) + 1
		return &verilog.Number{Width: w, Value: uint64(v) * 0x0101010101010101 & maskFor(w)}
	case 7: // unsized but wider than 32 bits
		return &verilog.Number{Value: 1<<32 | uint64(v)}
	case 8, 9: // 64-bit all-ones, shifted
		return &verilog.Number{Width: 64, Value: ^uint64(0) >> (v % 64)}
	case 10: // 4 bits with x/z digits, which read as 0 two-state
		return &verilog.Number{Width: 4, Value: uint64(v) & 0b0101, XMask: 0b0010, ZMask: uint64(v>>4) & 0b1000}
	case 15:
		return &verilog.Ident{Name: "nosuch"}
	}
	return &verilog.Ident{Name: [...]string{"P", "W", "Z", "S"}[v%4]}
}
