package sim

import (
	"math/bits"

	"repro/internal/compile"
	"repro/internal/verilog"
)

// This file holds what the four-state domain of the execution plan does not
// share with the two-state one: the expression kernels over V4 values, the
// branch tests (an x condition is false, case labels match over both
// planes), the initial Unk plane and the lazily built four-state lowering.
// The machine, the statement layer and the stores are plan.go's, run with
// their Unk planes present. The lowering is built on the first four-state
// run (Plan.fourState), so two-state simulation — the formal checker's hot
// path — pays nothing for it. The operator semantics live in v4.go and are
// shared with the reference interpreter (eval4.go), which the differential
// fuzzer holds this lowering against plane-for-plane.

// evalFn4 evaluates a compiled expression against four-state machine state.
type evalFn4 func(m *mach) V4

// plan4 is the four-state half of an execution plan.
type plan4 struct {
	initUnk []uint64 // per-slot initial unknown masks (x until reset/init)

	// lowered mirrors Plan.lowered; sva serves four-state trace evaluation.
	lowered[evalFn4, stmtFn]
}

// fourState returns the plan's four-state lowering, building it on first
// use. Nil when some construct could not be lowered; callers fall back to
// the four-state reference interpreter.
func (p *Plan) fourState() *plan4 {
	p.once4.Do(func() { p.p4 = buildPlan4(p) })
	return p.p4
}

func buildPlan4(p *Plan) *plan4 {
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
	l, ok := lower[evalFn4, stmtFn, stmtVFn](d, &plan4Emitter{}, true, false)
	if !ok {
		return nil
	}
	p4.lowered = l
	return p4
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// plan4Emitter emits the four-state plan's closures over mach's two planes.
type plan4Emitter struct{ planCore }

func (*plan4Emitter) ifStmt(cond evalFn4, then, els stmtFn) stmtFn {
	// An x condition is treated as false (IEEE 1364 §9.4).
	if els == nil {
		return func(m *mach) {
			if cond(m).IsTrue() {
				then(m)
			}
		}
	}
	return func(m *mach) {
		if cond(m).IsTrue() {
			then(m)
		} else {
			els(m)
		}
	}
}

func (*plan4Emitter) caseStmt(subj evalFn4, arms []caseArm[evalFn4, stmtFn], deflt stmtFn) stmtFn {
	return planCase(subj, arms, deflt)
}

func (*plan4Emitter) packs(_ evalFn4, sig *compile.Signal) bool { return sig != nil }

func (*plan4Emitter) assign(rhs evalFn4, mode writeMode, sig *compile.Signal, store stmtVFn) stmtFn {
	if sig == nil {
		return func(m *mach) {
			v := rhs(m)
			store(m, v.Val, v.Unk)
		}
	}
	slot, mask := int32(sig.Slot), sig.Mask()
	switch mode {
	case wAssign:
		return func(m *mach) {
			v := rhs(m).maskV(mask).norm()
			m.assign(slot, v.Val, v.Unk)
		}
	case wComb:
		return func(m *mach) {
			v := rhs(m).maskV(mask).norm()
			m.writeOvl(slot, v.Val, v.Unk)
		}
	case wSeqBlocking:
		return func(m *mach) {
			v := rhs(m).maskV(mask).norm()
			m.writeOvl(slot, v.Val, v.Unk)
			m.writeNBA(slot, v.Val, v.Unk)
		}
	}
	return func(m *mach) {
		v := rhs(m).maskV(mask).norm()
		m.writeNBA(slot, v.Val, v.Unk)
	}
}

// storeIndex reads an unknown index as 64, which the shared index store
// treats as out of range: an unknown-index write has no effect.
func (e *plan4Emitter) storeIndex(sig *compile.Signal, idxFn evalFn4, mode writeMode, _ stmtVFn) stmtVFn {
	return e.indexStore(sig, func(m *mach) uint64 {
		if idx := idxFn(m); idx.Unk == 0 {
			return idx.Val
		}
		return 64
	}, mode)
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

func (e *plan4Emitter) number(x *verilog.Number) evalFn4 {
	return e.konst(V4{Val: x.Value, Unk: x.Unknown()}.norm())
}

func (e *plan4Emitter) param(v uint64) evalFn4 { return e.konst(known(v)) }

func (*plan4Emitter) konst(v V4) evalFn4 { return func(*mach) V4 { return v } }

func (*plan4Emitter) signal(sig *compile.Signal) evalFn4 {
	slot := int32(sig.Slot)
	return func(m *mach) V4 { return m.read4(slot) }
}

func (*plan4Emitter) fail(err error) evalFn4 {
	return func(m *mach) V4 {
		m.fail(err)
		return V4{}
	}
}

func (*plan4Emitter) ternary(cond, xf, yf evalFn4) evalFn4 {
	return func(m *mach) V4 {
		cv := cond(m)
		if cv.IsTrue() {
			return xf(m)
		}
		if cv.IsFalse() {
			return yf(m)
		}
		return v4Merge(xf(m), yf(m))
	}
}

func (*plan4Emitter) index(xf, idxFn evalFn4) evalFn4 {
	return func(m *mach) V4 {
		// Base before index, matching the interpreter's order.
		v := xf(m)
		idx := idxFn(m)
		if idx.Unk != 0 {
			return xBool
		}
		if idx.Val >= 64 {
			return V4{}
		}
		return V4{Val: (v.Val >> idx.Val) & 1, Unk: (v.Unk >> idx.Val) & 1}
	}
}

func (*plan4Emitter) slice(xf evalFn4, shift uint, mask uint64) evalFn4 {
	return func(m *mach) V4 {
		v := xf(m)
		return V4{Val: (v.Val >> shift) & mask, Unk: (v.Unk >> shift) & mask}
	}
}

func (*plan4Emitter) concat(fns []evalFn4, widths []uint, masks []uint64) evalFn4 {
	return func(m *mach) V4 {
		var out V4
		for i, fn := range fns {
			v := fn(m)
			out.Val = (out.Val << widths[i]) | (v.Val & masks[i])
			out.Unk = (out.Unk << widths[i]) | (v.Unk & masks[i])
		}
		return out
	}
}

func (*plan4Emitter) repl(fn evalFn4, reps int, uw uint, mask uint64) evalFn4 {
	return func(m *mach) V4 {
		v := fn(m).maskV(mask)
		var out V4
		for i := 0; i < reps; i++ {
			out.Val = (out.Val << uw) | v.Val
			out.Unk = (out.Unk << uw) | v.Unk
		}
		return out
	}
}

func (*plan4Emitter) unary(op verilog.UnaryOp, xf evalFn4, mask uint64) (evalFn4, bool) {
	switch op {
	case verilog.UnaryLogicalNot:
		return func(m *mach) V4 { return v4LogNot(xf(m).maskV(mask)) }, true
	case verilog.UnaryBitNot:
		return func(m *mach) V4 { return v4Not(xf(m), mask) }, true
	case verilog.UnaryMinus:
		return func(m *mach) V4 {
			v := xf(m).maskV(mask)
			if v.Unk != 0 {
				return V4{Unk: mask}
			}
			return known(-v.Val & mask)
		}, true
	case verilog.UnaryPlus:
		return func(m *mach) V4 { return xf(m).maskV(mask) }, true
	case verilog.UnaryRedAnd:
		return func(m *mach) V4 { return v4RedAnd(xf(m), mask) }, true
	case verilog.UnaryRedOr:
		return func(m *mach) V4 { return v4RedOr(xf(m), mask) }, true
	case verilog.UnaryRedXor:
		return func(m *mach) V4 { return v4RedXor(xf(m), mask) }, true
	case verilog.UnaryRedXnor:
		return func(m *mach) V4 { return v4Not(v4RedXor(xf(m), mask), 1) }, true
	}
	return nil, false
}

func (*plan4Emitter) binary(op verilog.BinaryOp, af, bf evalFn4, w int) (evalFn4, bool) {
	switch op {
	case verilog.BinLogAnd:
		return func(m *mach) V4 {
			a := af(m)
			if a.IsFalse() {
				return V4{}
			}
			return v4LogAnd(a, bf(m))
		}, true
	case verilog.BinLogOr:
		return func(m *mach) V4 {
			a := af(m)
			if a.IsTrue() {
				return V4{Val: 1}
			}
			return v4LogOr(a, bf(m))
		}, true
	case verilog.BinAdd:
		return func(m *mach) V4 {
			return v4Arith(af(m), bf(m), func(p, q uint64) uint64 { return p + q })
		}, true
	case verilog.BinSub:
		return func(m *mach) V4 {
			return v4Arith(af(m), bf(m), func(p, q uint64) uint64 { return p - q })
		}, true
	case verilog.BinMul:
		return func(m *mach) V4 {
			return v4Arith(af(m), bf(m), func(p, q uint64) uint64 { return p * q })
		}, true
	case verilog.BinDiv:
		return func(m *mach) V4 {
			// Operands evaluate in the interpreter's order before the zero
			// check, so error effects agree between the engines.
			a, b := af(m), bf(m)
			return v4Div(a, b)
		}, true
	case verilog.BinMod:
		return func(m *mach) V4 {
			a, b := af(m), bf(m)
			return v4Mod(a, b)
		}, true
	case verilog.BinAnd:
		return func(m *mach) V4 { return v4And(af(m), bf(m)) }, true
	case verilog.BinOr:
		return func(m *mach) V4 { return v4Or(af(m), bf(m)) }, true
	case verilog.BinXor:
		return func(m *mach) V4 { return v4Xor(af(m), bf(m)) }, true
	case verilog.BinXnor:
		mask := maskFor(w)
		return func(m *mach) V4 { return v4Not(v4Xor(af(m), bf(m)), mask) }, true
	case verilog.BinEq:
		return func(m *mach) V4 { return v4Eq(af(m), bf(m)) }, true
	case verilog.BinNe:
		return func(m *mach) V4 { return v4LogNot(v4Eq(af(m), bf(m))) }, true
	case verilog.BinCaseEq:
		return func(m *mach) V4 { return v4CaseEq(af(m), bf(m)) }, true
	case verilog.BinCaseNe:
		return func(m *mach) V4 { return v4LogNot(v4CaseEq(af(m), bf(m))) }, true
	case verilog.BinLt:
		return func(m *mach) V4 {
			return v4RelArith(af(m), bf(m), func(p, q uint64) bool { return p < q })
		}, true
	case verilog.BinLe:
		return func(m *mach) V4 {
			return v4RelArith(af(m), bf(m), func(p, q uint64) bool { return p <= q })
		}, true
	case verilog.BinGt:
		return func(m *mach) V4 {
			return v4RelArith(af(m), bf(m), func(p, q uint64) bool { return p > q })
		}, true
	case verilog.BinGe:
		return func(m *mach) V4 {
			return v4RelArith(af(m), bf(m), func(p, q uint64) bool { return p >= q })
		}, true
	case verilog.BinShl:
		return func(m *mach) V4 { return v4Shl(af(m), bf(m)) }, true
	case verilog.BinShr:
		return func(m *mach) V4 { return v4Shr(af(m), bf(m)) }, true
	case verilog.BinAShr:
		return func(m *mach) V4 { return v4AShr(af(m), bf(m), w) }, true
	}
	return nil, false
}

func (*plan4Emitter) reduce(name string, fn evalFn4, mask uint64) evalFn4 {
	switch name {
	case "$countones":
		return func(m *mach) V4 {
			v := fn(m).maskV(mask)
			if v.Unk != 0 {
				return allX
			}
			return known(uint64(bits.OnesCount64(v.Val)))
		}
	case "$onehot":
		return func(m *mach) V4 {
			v := fn(m).maskV(mask)
			if v.Unk != 0 {
				return xBool
			}
			return boolV4(bits.OnesCount64(v.Val) == 1)
		}
	case "$onehot0":
		return func(m *mach) V4 {
			v := fn(m).maskV(mask)
			if v.Unk != 0 {
				return xBool
			}
			return boolV4(bits.OnesCount64(v.Val) <= 1)
		}
	default: // $isunknown
		return func(m *mach) V4 { return boolV4(fn(m).Unk&mask != 0) }
	}
}

func (*plan4Emitter) past(pos verilog.Pos, fn, depthFn evalFn4, _ uint64) evalFn4 {
	if depthFn == nil {
		depthFn = func(*mach) V4 { return V4{Val: 1} }
	}
	return func(m *mach) V4 {
		if m.rows == nil {
			m.fail(evalErrf(pos, "$past outside sampled context"))
			return V4{}
		}
		nv := depthFn(m)
		if nv.Unk != 0 || nv.Val == 0 || nv.Val > maxPastDepth {
			m.fail(evalErrf(pos, "$past depth %d out of range [1, %d]", nv.Val, uint64(maxPastDepth)))
			return V4{}
		}
		j := m.idx - int(nv.Val)
		if j < 0 {
			return V4{} // before start of time: sampled default (0)
		}
		return evalAt(m, fn, j)
	}
}

func (*plan4Emitter) sampled(pos verilog.Pos, name string, fn evalFn4) evalFn4 {
	return func(m *mach) V4 {
		if m.rows == nil {
			m.fail(evalErrf(pos, "%s outside sampled context", name))
			return V4{}
		}
		now := fn(m)
		var before V4
		if m.idx > 0 {
			before = evalAt(m, fn, m.idx-1)
		}
		return v4Sampled(name, before, now)
	}
}
