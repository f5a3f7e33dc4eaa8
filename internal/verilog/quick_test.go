package verilog

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genExpr builds a random expression tree of bounded depth from a seed,
// covering all node kinds the printer and parser share.
func genExpr(rng *rand.Rand, depth int) Expr {
	names := []string{"a", "b", "count", "valid_in", "state"}
	if depth <= 0 {
		if rng.Intn(2) == 0 {
			return &Ident{Name: names[rng.Intn(len(names))]}
		}
		switch rng.Intn(3) {
		case 0:
			return &Number{Value: uint64(rng.Intn(1000))}
		case 1:
			return &Number{Width: 4, Base: 'd', Value: uint64(rng.Intn(16))}
		default:
			return &Number{Width: 8, Base: 'h', Value: uint64(rng.Intn(256))}
		}
	}
	switch rng.Intn(8) {
	case 0:
		ops := []UnaryOp{UnaryLogicalNot, UnaryBitNot, UnaryRedAnd, UnaryRedOr, UnaryRedXor}
		return &Unary{Op: ops[rng.Intn(len(ops))], X: genExpr(rng, depth-1)}
	case 1, 2, 3:
		ops := []BinaryOp{
			BinAdd, BinSub, BinMul, BinAnd, BinOr, BinXor, BinLogAnd, BinLogOr,
			BinEq, BinNe, BinLt, BinLe, BinGt, BinGe, BinShl, BinShr,
		}
		return &Binary{Op: ops[rng.Intn(len(ops))], X: genExpr(rng, depth-1), Y: genExpr(rng, depth-1)}
	case 4:
		return &Ternary{Cond: genExpr(rng, depth-1), X: genExpr(rng, depth-1), Y: genExpr(rng, depth-1)}
	case 5:
		return &Index{X: &Ident{Name: names[rng.Intn(len(names))]}, Idx: &Number{Value: uint64(rng.Intn(8))}}
	case 6:
		lo := uint64(rng.Intn(4))
		return &Slice{X: &Ident{Name: names[rng.Intn(len(names))]},
			Hi: &Number{Value: lo + 1 + uint64(rng.Intn(4))}, Lo: &Number{Value: lo}}
	default:
		return &Concat{Elems: []Expr{genExpr(rng, depth-1), genExpr(rng, depth-1)}}
	}
}

// TestQuickExprRoundTrip: for any generated expression, printing and
// reparsing yields a tree that prints identically (print is a fixpoint
// through the parser).
func TestQuickExprRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := genExpr(rng, 4)
		text := ExprString(e)
		back, err := ParseExpr(text)
		if err != nil {
			t.Logf("parse error on %q: %v", text, err)
			return false
		}
		return ExprString(back) == text
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCloneIndependence: mutating a cloned expression never changes
// the original.
func TestQuickCloneIndependence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := genExpr(rng, 4)
		before := ExprString(e)
		clone := CloneExpr(e)
		// Mutate every number and ident in the clone.
		WalkExpr(clone, func(sub Expr) {
			switch x := sub.(type) {
			case *Number:
				x.Value++
			case *Ident:
				x.Name = "mutated"
			}
		})
		return ExprString(e) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNumberRoundTrip: any sized literal survives print -> lex ->
// parse with identical width and value.
func TestQuickNumberRoundTrip(t *testing.T) {
	f := func(raw uint64, widthSel uint8, baseSel uint8) bool {
		width := int(widthSel%16) + 1
		bases := []byte{'b', 'o', 'd', 'h'}
		n := &Number{
			Width: width,
			Base:  bases[int(baseSel)%len(bases)],
			Value: raw & ((1 << uint(width)) - 1),
		}
		text := NumberText(n)
		back, err := ParseExpr(text)
		if err != nil {
			return false
		}
		bn, ok := back.(*Number)
		return ok && bn.Width == n.Width && bn.Value == n.Value
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLexerNeverPanics: the lexer terminates without panicking on
// arbitrary byte soup (errors are fine; hangs and panics are not).
func TestQuickLexerNeverPanics(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			n := rng.Intn(60)
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(rng.Intn(128))
			}
			vals[0] = reflect.ValueOf(string(b))
		},
	}
	f := func(src string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("lexer panicked on %q: %v", src, r)
			}
		}()
		toks, err := lexAll(src)
		_ = err
		return len(toks) <= len(src)+1
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickParserNeverPanics: same guarantee for the parser.
func TestQuickParserNeverPanics(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 400,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			// Token soup assembled from plausible fragments parses or
			// errors, never panics.
			frags := []string{
				"module", "endmodule", "m", "(", ")", ";", "input", "output",
				"wire", "reg", "assign", "=", "<=", "always", "@", "posedge",
				"clk", "begin", "end", "if", "else", "[3:0]", "a", "b", "+",
				"property", "endproperty", "assert", "|->", "##1", "4'd9",
			}
			var sb []byte
			for i := 0; i < rng.Intn(40); i++ {
				sb = append(sb, frags[rng.Intn(len(frags))]...)
				sb = append(sb, ' ')
			}
			vals[0] = reflect.ValueOf(string(sb))
		},
	}
	f := func(src string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("parser panicked on %q: %v", src, r)
			}
		}()
		_, _ = Parse(src)
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
