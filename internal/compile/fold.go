package compile

import (
	"math/bits"

	"repro/internal/verilog"
)

// Names resolves the names a constant expression reads. Lookup returns a
// name's value and its self-determined width; ok is false for a name that
// holds no constant value, whose width still counts where ?: skips it.
type Names interface {
	Lookup(name string) (v uint64, w int, ok bool)
}

// Params resolves parameters, each 32 bits wide, and nothing else.
type Params map[string]uint64

// Lookup implements Names.
func (p Params) Lookup(name string) (uint64, int, bool) {
	v, ok := p[name]
	return v, 32, ok
}

// Fold folds a constant expression over names. It is the one constant
// folder of the repository: the elaborator and the flattener fold
// parameter values, overrides, declaration ranges and initialisers with
// it, the elaborator checks every part-select bound, replication count and
// $past depth with it, the simulator's planner and internal/lint read
// those constants back through it, and internal/lint folds its
// constant-signal and dead-branch proofs with it (see FoldKnown).
//
// Its arithmetic is the reference interpreter's two-state arithmetic
// (sim.Eval): values are 64-bit; an unsized literal is 32 bits wide, a
// sized literal its declared width and a name the width names gives it;
// ~, unary - and + and the reductions operate in their operand's
// self-determined width, ~^ in the wider operand's and >>> sign-extends
// from its left operand's top bit; a shift by 64 or more yields 0,
// division and modulus by zero yield 0 and an x/z digit reads as 0; a
// concatenation shifts each element in at its width, and a replication
// repeats its element at most 64 times and is count times its element's
// width wide; && and || short-circuit and ?: folds only the branch it
// takes, so a name they skip need not have a value (the branch ?: skips
// still gives its width). ok is false when the expression reads a name
// without a value, or holds anything but numbers, names, concatenations,
// replications and the unary, binary and ternary operators.
func Fold(expr verilog.Expr, names Names) (v uint64, ok bool) {
	f, ok := fold(expr, names)
	return f.v, ok
}

// FoldKnown is Fold in both value domains at once: it declines a fold that
// divided by zero or read an x/z digit, which is where the four-state
// domain differs from the two-state one, so what it folds is one fully
// known value in both.
func FoldKnown(expr verilog.Expr, names Names) (uint64, bool) {
	f, ok := fold(expr, names)
	return f.v, ok && f.x == 0
}

// evalConst folds a parameter value, a parameter override, a declaration
// range bound or a register initialiser: as Fold, except that a division
// or modulus by zero, which is x in the four-state domain, does not fold.
func evalConst(expr verilog.Expr, params Params) (uint64, bool) {
	f, ok := fold(expr, params)
	return f.v, ok && f.x&divZero == 0
}

// taint records what a fold met that makes its value x in the four-state
// domain.
type taint uint8

const (
	divZero taint = 1 << iota // a division or modulus by zero
	xzDigit                   // a literal's x or z digit
)

// folded is one folded subexpression: its value, its self-determined width
// and what four-state taint its evaluation met.
type folded struct {
	v uint64
	w int
	x taint
}

// fold is Fold, keeping the result's width and taint.
func fold(expr verilog.Expr, names Names) (folded, bool) {
	switch x := expr.(type) {
	case *verilog.Number:
		w, _ := foldWidthOK(x, names)
		out := folded{v: x.Value, w: w}
		if x.Unknown() != 0 {
			out.x = xzDigit
		}
		return out, true
	case *verilog.Ident:
		v, w, ok := names.Lookup(x.Name)
		return folded{v: v, w: w}, ok
	case *verilog.Unary:
		a, ok := fold(x.X, names)
		if !ok {
			return a, false
		}
		m := maskFor(a.w)
		v := a.v & m
		out := folded{w: UnaryWidth(x.Op, a.w), x: a.x}
		switch x.Op {
		case verilog.UnaryLogicalNot:
			out.v = boolVal(v == 0)
		case verilog.UnaryBitNot:
			out.v = ^v & m
		case verilog.UnaryMinus:
			out.v = -v & m
		case verilog.UnaryPlus:
			out.v = v
		case verilog.UnaryRedAnd:
			out.v = boolVal(v == m)
		case verilog.UnaryRedOr:
			out.v = boolVal(v != 0)
		case verilog.UnaryRedXor:
			out.v = uint64(bits.OnesCount64(v) & 1)
		case verilog.UnaryRedXnor:
			out.v = uint64(1 - bits.OnesCount64(v)&1)
		default:
			return out, false
		}
		return out, true
	case *verilog.Binary:
		return foldBinary(x, names)
	case *verilog.Ternary:
		c, ok := fold(x.Cond, names)
		if !ok {
			return c, false
		}
		taken, other := x.X, x.Y
		if c.v == 0 {
			taken, other = other, taken
		}
		t, ok := fold(taken, names)
		if !ok {
			return t, false
		}
		ow, ok := foldWidthOK(other, names)
		return folded{v: t.v, w: max(t.w, ow), x: c.x | t.x}, ok
	case *verilog.Concat:
		var out folded
		for _, el := range x.Elems {
			e, ok := fold(el, names)
			if !ok {
				return e, false
			}
			out.v = out.v<<uint(e.w) | e.v&maskFor(e.w)
			out.w += e.w
			out.x |= e.x
		}
		return out, true
	case *verilog.Repl:
		n, ok := fold(x.Count, names)
		if !ok {
			return n, false
		}
		e, ok := fold(x.Elem, names)
		if !ok {
			return e, false
		}
		out := folded{w: int(n.v) * e.w, x: n.x | e.x}
		for i := uint64(0); i < n.v && i < 64; i++ {
			out.v = out.v<<uint(e.w) | e.v&maskFor(e.w)
		}
		return out, true
	}
	return folded{}, false
}

func foldBinary(x *verilog.Binary, names Names) (folded, bool) {
	a, ok := fold(x.X, names)
	if !ok {
		return a, false
	}
	if x.Op == verilog.BinLogAnd || x.Op == verilog.BinLogOr {
		if (a.v != 0) == (x.Op == verilog.BinLogOr) {
			return folded{v: boolVal(a.v != 0), w: 1, x: a.x}, true
		}
		b, ok := fold(x.Y, names)
		return folded{v: boolVal(b.v != 0), w: 1, x: a.x | b.x}, ok
	}
	b, ok := fold(x.Y, names)
	if !ok {
		return b, false
	}
	out := folded{w: BinaryWidth(x.Op, a.w, b.w), x: a.x | b.x}
	switch x.Op {
	case verilog.BinAdd:
		out.v = a.v + b.v
	case verilog.BinSub:
		out.v = a.v - b.v
	case verilog.BinMul:
		out.v = a.v * b.v
	case verilog.BinDiv:
		if b.v == 0 {
			out.x |= divZero
		} else {
			out.v = a.v / b.v
		}
	case verilog.BinMod:
		if b.v == 0 {
			out.x |= divZero
		} else {
			out.v = a.v % b.v
		}
	case verilog.BinAnd:
		out.v = a.v & b.v
	case verilog.BinOr:
		out.v = a.v | b.v
	case verilog.BinXor:
		out.v = a.v ^ b.v
	case verilog.BinXnor:
		out.v = ^(a.v ^ b.v) & maskFor(out.w)
	case verilog.BinEq, verilog.BinCaseEq:
		out.v = boolVal(a.v == b.v)
	case verilog.BinNe, verilog.BinCaseNe:
		out.v = boolVal(a.v != b.v)
	case verilog.BinLt:
		out.v = boolVal(a.v < b.v)
	case verilog.BinLe:
		out.v = boolVal(a.v <= b.v)
	case verilog.BinGt:
		out.v = boolVal(a.v > b.v)
	case verilog.BinGe:
		out.v = boolVal(a.v >= b.v)
	case verilog.BinShl:
		if b.v < 64 {
			out.v = a.v << b.v
		}
	case verilog.BinShr:
		if b.v < 64 {
			out.v = a.v >> b.v
		}
	case verilog.BinAShr:
		out.v = ashr(a.v, b.v, a.w)
	default:
		return out, false
	}
	return out, true
}

// foldWidthOK is the self-determined width of a constant expression, which
// fold computes alongside its value for every operand it folds, and
// whether every operator the width depends on is one fold folds: the
// branch ?: does not take contributes its width without being folded. A
// replication there whose count does not fold is 1 bit wide, as
// sim.ExprWidth has it.
func foldWidthOK(e verilog.Expr, names Names) (int, bool) {
	switch x := e.(type) {
	case *verilog.Number:
		if x.Width > 0 {
			return x.Width, true
		}
		return 32, true
	case *verilog.Ident:
		_, w, _ := names.Lookup(x.Name)
		return w, true
	case *verilog.Unary:
		w, ok := foldWidthOK(x.X, names)
		return UnaryWidth(x.Op, w), ok
	case *verilog.Binary:
		a, ok1 := foldWidthOK(x.X, names)
		b, ok2 := foldWidthOK(x.Y, names)
		return BinaryWidth(x.Op, a, b), ok1 && ok2
	case *verilog.Ternary:
		a, ok1 := foldWidthOK(x.X, names)
		b, ok2 := foldWidthOK(x.Y, names)
		return max(a, b), ok1 && ok2
	case *verilog.Concat:
		sum, ok := 0, true
		for _, el := range x.Elems {
			w, okEl := foldWidthOK(el, names)
			sum, ok = sum+w, ok && okEl
		}
		return sum, ok
	case *verilog.Repl:
		n, ok := fold(x.Count, names)
		if !ok {
			return 1, true
		}
		w, ok := foldWidthOK(x.Elem, names)
		return int(n.v) * w, ok
	}
	return 32, false
}

// UnaryWidth is the self-determined width of op applied to a w-bit
// operand: 1 for ! and the reductions, w otherwise. It and BinaryWidth are
// the production width rule: the folder computes constant widths with
// them, and internal/sim's planner the width of every expression it
// lowers. sim.ExprWidth, the reference interpreter's own spelling, is the
// oracle tests hold them to.
func UnaryWidth(op verilog.UnaryOp, w int) int {
	switch op {
	case verilog.UnaryLogicalNot, verilog.UnaryRedAnd, verilog.UnaryRedOr,
		verilog.UnaryRedXor, verilog.UnaryRedXnor:
		return 1
	}
	return w
}

// BinaryWidth is the self-determined width of op over operands a and b
// bits wide: 1 for the logical and comparison operators, a for the shifts,
// the wider otherwise. See UnaryWidth.
func BinaryWidth(op verilog.BinaryOp, a, b int) int {
	switch op {
	case verilog.BinLogAnd, verilog.BinLogOr, verilog.BinEq, verilog.BinNe,
		verilog.BinCaseEq, verilog.BinCaseNe, verilog.BinLt, verilog.BinLe,
		verilog.BinGt, verilog.BinGe:
		return 1
	case verilog.BinShl, verilog.BinShr, verilog.BinAShr:
		return a
	}
	return max(a, b)
}

func maskFor(width int) uint64 {
	if width <= 0 || width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(width)) - 1
}

func boolVal(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ashr arithmetic-shifts a right by b, sign-extending from bit w-1, the
// left operand's self-determined width; the result stays masked to w.
func ashr(a, b uint64, w int) uint64 {
	if w <= 0 || w > 64 {
		w = 64
	}
	m := maskFor(w)
	a &= m
	neg := (a>>uint(w-1))&1 == 1
	if b >= uint64(w) {
		if neg {
			return m
		}
		return 0
	}
	out := a >> b
	if neg {
		out |= m &^ (m >> b)
	}
	return out
}
