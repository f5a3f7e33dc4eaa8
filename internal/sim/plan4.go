package sim

import (
	"math/bits"

	"repro/internal/verilog"
)

// This file holds what the four-state domain of the execution plan does not
// share with the two-state one: the kernels whose formulas really differ
// (x literals, the x-merge of ?:, an unknown index, the operators' x rules
// and div/mod by zero), the initial Unk plane and the lazily built
// four-state lowering. The machine, the statement layer, the stores and
// every other kernel are plan.go's, run with their Unk planes present. The
// lowering is built on the first four-state run (Plan.fourState), so
// two-state simulation — the formal checker's hot path — pays nothing for
// it. The operator semantics live in v4.go and are shared with the
// reference interpreter (eval4.go), which the differential fuzzer holds
// this lowering against plane-for-plane.

// plan4 is the four-state half of an execution plan.
type plan4 struct {
	initUnk []uint64 // per-slot initial unknown masks (x until reset/init)

	// lowered mirrors Plan.lowered; sva serves four-state trace evaluation.
	lowered[evalFn, stmtFn]
}

// fourState returns the plan's four-state lowering, building it on first
// use; nil when some construct could not be lowered (see lowering).
func (p *Plan) fourState() *plan4 {
	p.once4.Do(func() { p.p4, _ = buildPlan4(p) })
	return p.p4
}

func buildPlan4(p *Plan) (*plan4, error) {
	d := p.design
	p4 := &plan4{initUnk: make([]uint64, p.nslots)}
	for _, name := range d.Order {
		sig := d.Signals[name]
		p4.initUnk[sig.Slot] = sig.Mask()
	}
	for name := range d.RegInit {
		if sig := d.Signals[name]; sig != nil {
			p4.initUnk[sig.Slot] = d.RegInitX[name] & sig.Mask()
		}
	}
	l, err := lower(d, planEmitters[FourState])
	if err != nil {
		return nil, err
	}
	p4.lowered = l
	return p4, nil
}

// v4 evaluates fn as a V4, for the shared operator semantics.
func (fn evalFn) v4(m *mach) V4 {
	v, u := fn(m)
	return V4{Val: v, Unk: u}
}

// planes returns v's two words as an evalFn returns them.
func (v V4) planes() (val, unk uint64) { return v.Val, v.Unk }

// plan4Emitter holds the four-state kernels whose formulas differ from the
// two-state ones.
type plan4Emitter struct{}

func (*plan4Emitter) number(x *verilog.Number) evalFn {
	return konst(V4{Val: x.Value, Unk: x.Unknown()}.norm())
}

func (*plan4Emitter) ternary(cond, xf, yf evalFn) evalFn {
	return func(m *mach) (uint64, uint64) {
		cv := cond.v4(m)
		if cv.IsTrue() {
			return xf(m)
		}
		if cv.IsFalse() {
			return yf(m)
		}
		return v4Merge(xf.v4(m), yf.v4(m)).planes()
	}
}

func (*plan4Emitter) index(xf, idxFn evalFn) evalFn {
	return func(m *mach) (uint64, uint64) {
		// Base before index, matching the interpreter's order.
		v, u := xf(m)
		idx, iu := idxFn(m)
		if iu != 0 {
			return xBool.planes()
		}
		if idx >= 64 {
			return 0, 0
		}
		return (v >> idx) & 1, (u >> idx) & 1
	}
}

func (*plan4Emitter) unary(op verilog.UnaryOp, xf evalFn, mask uint64) (evalFn, bool) {
	switch op {
	case verilog.UnaryLogicalNot:
		return func(m *mach) (uint64, uint64) { return v4LogNot(xf.v4(m).maskV(mask)).planes() }, true
	case verilog.UnaryBitNot:
		return func(m *mach) (uint64, uint64) { return v4Not(xf.v4(m), mask).planes() }, true
	case verilog.UnaryMinus:
		return func(m *mach) (uint64, uint64) {
			v := xf.v4(m).maskV(mask)
			if v.Unk != 0 {
				return 0, mask
			}
			return -v.Val & mask, 0
		}, true
	case verilog.UnaryPlus:
		return func(m *mach) (uint64, uint64) { return xf.v4(m).maskV(mask).planes() }, true
	case verilog.UnaryRedAnd:
		return func(m *mach) (uint64, uint64) { return v4RedAnd(xf.v4(m), mask).planes() }, true
	case verilog.UnaryRedOr:
		return func(m *mach) (uint64, uint64) { return v4RedOr(xf.v4(m), mask).planes() }, true
	case verilog.UnaryRedXor:
		return func(m *mach) (uint64, uint64) { return v4RedXor(xf.v4(m), mask).planes() }, true
	case verilog.UnaryRedXnor:
		return func(m *mach) (uint64, uint64) { return v4Not(v4RedXor(xf.v4(m), mask), 1).planes() }, true
	}
	return nil, false
}

// binary evaluates both operands in the interpreter's order (left, then
// right) before applying a rule, except where && and || short-cut, so
// error effects agree between the engines.
func (*plan4Emitter) binary(op verilog.BinaryOp, af, bf evalFn, w int) (evalFn, bool) {
	switch op {
	case verilog.BinLogAnd:
		return func(m *mach) (uint64, uint64) {
			a := af.v4(m)
			if a.IsFalse() {
				return 0, 0
			}
			return v4LogAnd(a, bf.v4(m)).planes()
		}, true
	case verilog.BinLogOr:
		return func(m *mach) (uint64, uint64) {
			a := af.v4(m)
			if a.IsTrue() {
				return 1, 0
			}
			return v4LogOr(a, bf.v4(m)).planes()
		}, true
	case verilog.BinAdd:
		return func(m *mach) (uint64, uint64) {
			return v4Arith(af.v4(m), bf.v4(m), func(p, q uint64) uint64 { return p + q }).planes()
		}, true
	case verilog.BinSub:
		return func(m *mach) (uint64, uint64) {
			return v4Arith(af.v4(m), bf.v4(m), func(p, q uint64) uint64 { return p - q }).planes()
		}, true
	case verilog.BinMul:
		return func(m *mach) (uint64, uint64) {
			return v4Arith(af.v4(m), bf.v4(m), func(p, q uint64) uint64 { return p * q }).planes()
		}, true
	case verilog.BinDiv:
		return func(m *mach) (uint64, uint64) { return v4Div(af.v4(m), bf.v4(m)).planes() }, true
	case verilog.BinMod:
		return func(m *mach) (uint64, uint64) { return v4Mod(af.v4(m), bf.v4(m)).planes() }, true
	case verilog.BinAnd:
		return func(m *mach) (uint64, uint64) { return v4And(af.v4(m), bf.v4(m)).planes() }, true
	case verilog.BinOr:
		return func(m *mach) (uint64, uint64) { return v4Or(af.v4(m), bf.v4(m)).planes() }, true
	case verilog.BinXor:
		return func(m *mach) (uint64, uint64) { return v4Xor(af.v4(m), bf.v4(m)).planes() }, true
	case verilog.BinXnor:
		mask := maskFor(w)
		return func(m *mach) (uint64, uint64) { return v4Not(v4Xor(af.v4(m), bf.v4(m)), mask).planes() }, true
	case verilog.BinEq:
		return func(m *mach) (uint64, uint64) { return v4Eq(af.v4(m), bf.v4(m)).planes() }, true
	case verilog.BinNe:
		return func(m *mach) (uint64, uint64) { return v4LogNot(v4Eq(af.v4(m), bf.v4(m))).planes() }, true
	case verilog.BinCaseEq:
		return func(m *mach) (uint64, uint64) { return v4CaseEq(af.v4(m), bf.v4(m)).planes() }, true
	case verilog.BinCaseNe:
		return func(m *mach) (uint64, uint64) { return v4LogNot(v4CaseEq(af.v4(m), bf.v4(m))).planes() }, true
	case verilog.BinLt:
		return func(m *mach) (uint64, uint64) {
			return v4RelArith(af.v4(m), bf.v4(m), func(p, q uint64) bool { return p < q }).planes()
		}, true
	case verilog.BinLe:
		return func(m *mach) (uint64, uint64) {
			return v4RelArith(af.v4(m), bf.v4(m), func(p, q uint64) bool { return p <= q }).planes()
		}, true
	case verilog.BinGt:
		return func(m *mach) (uint64, uint64) {
			return v4RelArith(af.v4(m), bf.v4(m), func(p, q uint64) bool { return p > q }).planes()
		}, true
	case verilog.BinGe:
		return func(m *mach) (uint64, uint64) {
			return v4RelArith(af.v4(m), bf.v4(m), func(p, q uint64) bool { return p >= q }).planes()
		}, true
	case verilog.BinShl:
		return func(m *mach) (uint64, uint64) { return v4Shl(af.v4(m), bf.v4(m)).planes() }, true
	case verilog.BinShr:
		return func(m *mach) (uint64, uint64) { return v4Shr(af.v4(m), bf.v4(m)).planes() }, true
	case verilog.BinAShr:
		return func(m *mach) (uint64, uint64) { return v4AShr(af.v4(m), bf.v4(m), w).planes() }, true
	}
	return nil, false
}

func (*plan4Emitter) reduce(name string, fn evalFn, mask uint64) evalFn {
	switch name {
	case "$countones":
		return func(m *mach) (uint64, uint64) {
			v := fn.v4(m).maskV(mask)
			if v.Unk != 0 {
				return allX.planes()
			}
			return uint64(bits.OnesCount64(v.Val)), 0
		}
	case "$onehot":
		return func(m *mach) (uint64, uint64) {
			v := fn.v4(m).maskV(mask)
			if v.Unk != 0 {
				return xBool.planes()
			}
			return boolVal(bits.OnesCount64(v.Val) == 1), 0
		}
	case "$onehot0":
		return func(m *mach) (uint64, uint64) {
			v := fn.v4(m).maskV(mask)
			if v.Unk != 0 {
				return xBool.planes()
			}
			return boolVal(bits.OnesCount64(v.Val) <= 1), 0
		}
	default: // $isunknown
		return func(m *mach) (uint64, uint64) {
			_, u := fn(m)
			return boolVal(u&mask != 0), 0
		}
	}
}
