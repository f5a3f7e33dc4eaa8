package compile

import (
	"math/bits"

	"repro/internal/verilog"
)

// Fold folds a parameter-only constant expression over params. It is the
// one constant folder of the repository: the elaborator and the flattener
// fold parameter values, overrides, declaration ranges and initialisers
// with it, the elaborator checks every part-select bound, replication
// count and $past depth with it, and the simulator's planner and
// internal/lint read those constants back through it.
//
// Its arithmetic is the reference interpreter's two-state arithmetic
// (sim.Eval): values are 64-bit; an unsized literal or a parameter is 32
// bits wide, a sized literal its declared width; ~, unary - and + and the
// reductions operate in their operand's self-determined width, ~^ in the
// wider operand's and >>> sign-extends from its left operand's top bit; a
// shift by 64 or more yields 0, division and modulus by zero yield 0;
// && and || short-circuit and ?: folds only the branch it takes, so a name
// they skip need not be a parameter (the branch ?: skips still gives its
// width). ok is false when the expression names something that is not a
// parameter, or holds anything but numbers, parameters and the unary,
// binary and ternary operators.
func Fold(expr verilog.Expr, params map[string]uint64) (v uint64, ok bool) {
	f, ok := fold(expr, params)
	return f.v, ok
}

// evalConst folds a parameter value, a parameter override, a declaration
// range bound or a register initialiser: as Fold, except that a division
// or modulus by zero, which is x in the four-state domain, does not fold.
func evalConst(expr verilog.Expr, params map[string]uint64) (uint64, bool) {
	f, ok := fold(expr, params)
	return f.v, ok && !f.div0
}

// folded is one folded subexpression: its value, its self-determined width
// and whether its evaluation divided by zero.
type folded struct {
	v    uint64
	w    int
	div0 bool
}

// fold is Fold, keeping the result's width and whether it divided by zero.
func fold(expr verilog.Expr, params map[string]uint64) (folded, bool) {
	switch x := expr.(type) {
	case *verilog.Number:
		w, _ := foldWidthOK(x)
		return folded{v: x.Value, w: w}, true
	case *verilog.Ident:
		v, ok := params[x.Name]
		return folded{v: v, w: 32}, ok
	case *verilog.Unary:
		a, ok := fold(x.X, params)
		if !ok {
			return a, false
		}
		m := maskFor(a.w)
		v := a.v & m
		out := folded{w: unaryWidth(x.Op, a.w), div0: a.div0}
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
		return foldBinary(x, params)
	case *verilog.Ternary:
		c, ok := fold(x.Cond, params)
		if !ok {
			return c, false
		}
		taken, other := x.X, x.Y
		if c.v == 0 {
			taken, other = other, taken
		}
		t, ok := fold(taken, params)
		if !ok {
			return t, false
		}
		ow, ok := foldWidthOK(other)
		return folded{v: t.v, w: max(t.w, ow), div0: c.div0 || t.div0}, ok
	}
	return folded{}, false
}

func foldBinary(x *verilog.Binary, params map[string]uint64) (folded, bool) {
	a, ok := fold(x.X, params)
	if !ok {
		return a, false
	}
	if x.Op == verilog.BinLogAnd || x.Op == verilog.BinLogOr {
		if (a.v != 0) == (x.Op == verilog.BinLogOr) {
			return folded{v: boolVal(a.v != 0), w: 1, div0: a.div0}, true
		}
		b, ok := fold(x.Y, params)
		return folded{v: boolVal(b.v != 0), w: 1, div0: a.div0 || b.div0}, ok
	}
	b, ok := fold(x.Y, params)
	if !ok {
		return b, false
	}
	out := folded{w: binaryWidth(x.Op, a.w, b.w), div0: a.div0 || b.div0}
	switch x.Op {
	case verilog.BinAdd:
		out.v = a.v + b.v
	case verilog.BinSub:
		out.v = a.v - b.v
	case verilog.BinMul:
		out.v = a.v * b.v
	case verilog.BinDiv:
		if b.v == 0 {
			out.div0 = true
		} else {
			out.v = a.v / b.v
		}
	case verilog.BinMod:
		if b.v == 0 {
			out.div0 = true
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
// branch ?: does not take contributes its width without being folded.
func foldWidthOK(e verilog.Expr) (int, bool) {
	switch x := e.(type) {
	case *verilog.Number:
		if x.Width > 0 {
			return x.Width, true
		}
		return 32, true
	case *verilog.Ident:
		return 32, true
	case *verilog.Unary:
		w, ok := foldWidthOK(x.X)
		return unaryWidth(x.Op, w), ok
	case *verilog.Binary:
		a, ok1 := foldWidthOK(x.X)
		b, ok2 := foldWidthOK(x.Y)
		return binaryWidth(x.Op, a, b), ok1 && ok2
	case *verilog.Ternary:
		a, ok1 := foldWidthOK(x.X)
		b, ok2 := foldWidthOK(x.Y)
		return max(a, b), ok1 && ok2
	}
	return 32, false
}

// unaryWidth is the width of op applied to a w-bit operand: 1 for ! and
// the reductions, w otherwise.
func unaryWidth(op verilog.UnaryOp, w int) int {
	switch op {
	case verilog.UnaryLogicalNot, verilog.UnaryRedAnd, verilog.UnaryRedOr,
		verilog.UnaryRedXor, verilog.UnaryRedXnor:
		return 1
	}
	return w
}

// binaryWidth is the width of op over operands a and b bits wide: 1 for the
// logical and comparison operators, a for the shifts, the wider otherwise.
func binaryWidth(op verilog.BinaryOp, a, b int) int {
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
