package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/compile"
	"repro/internal/verilog"
)

// This file is the four-state lowering of the execution plan: the same
// compile-once, slot-indexed closure architecture as plan.go, but over
// two-plane V4 state. It is built lazily (Plan.fourState) on the first
// four-state run, so two-state simulation — the formal checker's hot path —
// pays nothing for it. The operator semantics live in v4.go and are shared
// with the reference interpreter (eval4.go), which the differential fuzzer
// holds this lowering against plane-for-plane.

// evalFn4 evaluates a compiled expression against four-state machine state.
type evalFn4 func(m *mach) V4

// stmtVFn4 stores a four-state value into a compiled assignment target.
type stmtVFn4 func(m *mach, v V4)

// planAssign4 is one compiled continuous assignment.
type planAssign4 struct {
	rhs   evalFn4
	store stmtVFn4
}

// plan4 is the four-state half of an execution plan.
type plan4 struct {
	initUnk []uint64 // per-slot initial unknown masks (x until reset/init)

	// lowered mirrors Plan.lowered; sva serves four-state trace evaluation.
	lowered[evalFn4, stmtFn, planAssign4]
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
	l, ok := lower[evalFn4, stmtFn, stmtVFn4, planAssign4](d, &plan4Emitter{}, true, false)
	if !ok {
		return nil
	}
	p4.lowered = l
	return p4
}

// ---------------------------------------------------------------------------
// Four-state machine state
// ---------------------------------------------------------------------------

// setup4 is setup with both value planes allocated and the initial unknown
// masks applied (every signal x except declared initials).
func (m *mach) setup4(p *Plan, p4 *plan4) {
	m.setup(p)
	n := p.nslots
	m.unks = make([]uint64, n)
	m.ovlUnk = make([]uint64, n)
	m.nbaUnk = make([]uint64, n)
	copy(m.unks, p4.initUnk)
}

// traceMach4 returns a machine for evaluating compiled expressions over a
// four-state trace's sampled rows.
func traceMach4(p *Plan, rows, rows4 [][]uint64) *mach {
	n := p.nslots
	return &mach{p: p, ovlGen: make([]uint32, n), gen: 1, rows: rows, rows4: rows4}
}

func (m *mach) read4(slot int32) V4 {
	if m.ovlGen[slot] == m.gen {
		return V4{Val: m.ovlVal[slot], Unk: m.ovlUnk[slot]}
	}
	return V4{Val: m.vals[slot], Unk: m.unks[slot]}
}

// writeOvl4 records a blocking write visible to later reads in the block.
func (m *mach) writeOvl4(slot int32, v V4) {
	if m.ovlGen[slot] != m.gen {
		m.ovlGen[slot] = m.gen
		m.touched = append(m.touched, slot)
	}
	m.ovlVal[slot] = v.Val
	m.ovlUnk[slot] = v.Unk
}

// writeNBA4 records a post-edge commit; the last write in program order wins.
func (m *mach) writeNBA4(slot int32, v V4) {
	if m.nbaGen[slot] != m.ngen {
		m.nbaGen[slot] = m.ngen
		m.nbaList = append(m.nbaList, slot)
	}
	m.nbaVal[slot] = v.Val
	m.nbaUnk[slot] = v.Unk
}

// settle4 mirrors mach.settle over both value planes.
func (m *mach) settle4(p4 *plan4) error {
	for iter := 0; iter < maxCombIterations; iter++ {
		m.changed = false
		m.gen++ // assigns read committed state, never a stale overlay
		for i := range p4.assigns {
			a := &p4.assigns[i]
			a.store(m, a.rhs(m))
		}
		for _, body := range p4.combs {
			m.gen++
			m.touched = m.touched[:0]
			body(m)
			if m.err != nil {
				return m.err
			}
			for _, slot := range m.touched {
				if v, u := m.ovlVal[slot], m.ovlUnk[slot]; m.vals[slot] != v || m.unks[slot] != u {
					m.vals[slot], m.unks[slot] = v, u
					m.changed = true
				}
			}
		}
		if m.err != nil {
			return m.err
		}
		if !m.changed {
			return nil
		}
	}
	return fmt.Errorf("sim: combinational logic did not settle (cycle?)")
}

// edge4 mirrors mach.edge over both value planes: the edge runs only the
// blocks whose domain bit is set in fired (seqs is index-aligned with
// seqDomain).
func (m *mach) edge4(p4 *plan4, fired uint64) error {
	m.ngen++
	m.nbaList = m.nbaList[:0]
	dom := m.p.seqDomain
	for i, body := range p4.seqs {
		if dom != nil && fired>>uint(dom[i])&1 == 0 {
			continue
		}
		m.gen++ // fresh blocking overlay per block
		m.touched = m.touched[:0]
		body(m)
		if m.err != nil {
			return m.err
		}
	}
	for _, slot := range m.nbaList {
		m.vals[slot] = m.nbaVal[slot]
		m.unks[slot] = m.nbaUnk[slot]
	}
	return m.settle4(p4)
}

// evalAt4 evaluates a compiled expression against an earlier sampled row,
// restoring the current frame afterwards.
func (m *mach) evalAt4(fn evalFn4, idx int) V4 {
	savedVals, savedUnks, savedIdx := m.vals, m.unks, m.idx
	m.vals, m.unks, m.idx = m.rows[idx], m.rows4[idx], idx
	v := fn(m)
	m.vals, m.unks, m.idx = savedVals, savedUnks, savedIdx
	return v
}

// ---------------------------------------------------------------------------
// Statements and stores
// ---------------------------------------------------------------------------

// plan4Emitter emits the four-state plan's closures over mach's two planes.
type plan4Emitter struct{}

func (*plan4Emitter) nop() stmtFn { return func(*mach) {} }

func (*plan4Emitter) block(body []stmtFn) stmtFn { return planBlock(body) }

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
	return func(m *mach) {
		// Case labels match by case equality over both planes, like the
		// four-state interpreter.
		sv := subj(m)
		for i := range arms {
			for _, lf := range arms[i].labels {
				if lf(m) == sv {
					arms[i].body(m)
					return
				}
				if m.err != nil {
					return
				}
			}
		}
		if deflt != nil {
			deflt(m)
		}
	}
}

func (*plan4Emitter) packs(evalFn4, *compile.Signal) bool { return false }

func (*plan4Emitter) assign(rhs evalFn4, _ writeMode, _ *compile.Signal, store stmtVFn4) stmtFn {
	return func(m *mach) { store(m, rhs(m)) }
}

func (*plan4Emitter) contAssign(rhs evalFn4, _ *compile.Signal, store stmtVFn4) planAssign4 {
	return planAssign4{rhs: rhs, store: store}
}

func (*plan4Emitter) store(sig *compile.Signal, mode writeMode) stmtVFn4 {
	slot := int32(sig.Slot)
	mask := sig.Mask()
	switch mode {
	case wAssign:
		return func(m *mach, v V4) {
			v = v.maskV(mask).norm()
			if m.vals[slot] != v.Val || m.unks[slot] != v.Unk {
				m.vals[slot] = v.Val
				m.unks[slot] = v.Unk
				m.changed = true
			}
		}
	case wComb:
		return func(m *mach, v V4) { m.writeOvl4(slot, v.maskV(mask).norm()) }
	case wSeqBlocking:
		return func(m *mach, v V4) {
			v = v.maskV(mask).norm()
			m.writeOvl4(slot, v)
			m.writeNBA4(slot, v)
		}
	default: // wSeqNBA
		return func(m *mach, v V4) { m.writeNBA4(slot, v.maskV(mask).norm()) }
	}
}

func (*plan4Emitter) storeIndex(sig *compile.Signal, idxFn evalFn4, mode writeMode, inner stmtVFn4) stmtVFn4 {
	base := rmwBase4(int32(sig.Slot), mode)
	return func(m *mach, v V4) {
		idx := idxFn(m)
		if idx.Unk != 0 || idx.Val >= 64 {
			return // write at an unknown or out-of-range index: no effect
		}
		sh := idx.Val
		bit := uint64(1) << sh
		cur := base(m)
		inner(m, V4{
			Val: (cur.Val &^ bit) | ((v.Val & 1) << sh),
			Unk: (cur.Unk &^ bit) | ((v.Unk & 1) << sh),
		})
	}
}

func (*plan4Emitter) storeSlice(sig *compile.Signal, shift uint, sm uint64, mode writeMode, inner stmtVFn4) stmtVFn4 {
	base := rmwBase4(int32(sig.Slot), mode)
	return func(m *mach, v V4) {
		cur := base(m)
		inner(m, V4{
			Val: (cur.Val &^ sm) | ((v.Val << shift) & sm),
			Unk: (cur.Unk &^ sm) | ((v.Unk << shift) & sm),
		})
	}
}

func (*plan4Emitter) storeConcat(parts []stmtVFn4, shifts []uint, masks []uint64) stmtVFn4 {
	return func(m *mach, v V4) {
		for i, st := range parts {
			st(m, V4{Val: (v.Val >> shifts[i]) & masks[i], Unk: (v.Unk >> shifts[i]) & masks[i]})
		}
	}
}

// rmwBase4 mirrors rmwBase over both planes.
func rmwBase4(slot int32, mode writeMode) evalFn4 {
	switch mode {
	case wAssign:
		return func(m *mach) V4 { return V4{Val: m.vals[slot], Unk: m.unks[slot]} }
	case wSeqNBA:
		return func(m *mach) V4 {
			if m.nbaGen[slot] == m.ngen {
				return V4{Val: m.nbaVal[slot], Unk: m.nbaUnk[slot]}
			}
			return m.read4(slot)
		}
	default: // wComb, wSeqBlocking: blocking overlay then committed state
		return func(m *mach) V4 { return m.read4(slot) }
	}
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
		return m.evalAt4(fn, j)
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
			before = m.evalAt4(fn, m.idx-1)
		}
		return v4Sampled(name, before, now)
	}
}
