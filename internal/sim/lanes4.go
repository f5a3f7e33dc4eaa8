package sim

import (
	"math/bits"

	"repro/internal/compile"
	"repro/internal/verilog"
)

// This file holds the four-state lane expression kernels: the same
// packed/per-lane hybrid as lanes.go's two-state kernels over paired
// Val/Unk planes, on lanes.go's machine and statement layer. Packed
// single-bit kernels apply the v4.go per-bit formulas word-wide (v4And's
// absorption, v4Or, v4Xor, v4Not and v4Merge are all bitwise, so one word
// op evaluates them for 64 lanes); everything wider falls back to per-lane
// loops over the exact V4 operator functions shared with plan4.go and the
// reference interpreter.

// laneBit4Fn evaluates a packed four-state expression: bit l of val/unk is
// lane l's canonical single-bit value (val is 0 wherever unk is 1).
type laneBit4Fn func(m *lmach) (val, unk uint64)

// lexpr4 is one compiled four-state lane expression: exactly one of
// bit/vec is set.
type lexpr4 struct {
	bit laneBit4Fn
	vec laneVecFn
}

// lane4Emitter emits the four-state lane closures.
type lane4Emitter struct {
	laneCore
}

// asVec adapts any four-state lane expression to paired register form.
func (c *lane4Emitter) asVec(e lexpr4) laneVecFn {
	if e.vec != nil {
		return e.vec
	}
	bf, reg := e.bit, c.newReg()
	return func(m *lmach) ([]uint64, []uint64) {
		v, u := bf(m)
		return m.spread(reg, v, u)
	}
}

// bool3 compiles three-valued truth masks: tw = lanes with a known nonzero
// value, xw = lanes whose truth is undetermined; false lanes are the rest.
func (c *lane4Emitter) bool3(e lexpr4) laneBoolFn {
	if e.bit != nil {
		bf := e.bit
		// Canonical packed values: val bit set => true; else unk bit => x.
		return func(m *lmach) (uint64, uint64) {
			v, u := bf(m)
			return v, u &^ v
		}
	}
	vf := e.vec
	return func(m *lmach) (uint64, uint64) {
		vv, uu := vf(m)
		tw := nonzeroLanes(vv)
		return tw, nonzeroLanes(uu) &^ tw
	}
}

// truth compiles the lanes whose value is a known nonzero into a word.
func (c *lane4Emitter) truth(e lexpr4) laneBitFn {
	if e.bit != nil {
		bf := e.bit
		return func(m *lmach) uint64 {
			v, _ := bf(m)
			return v
		}
	}
	vf := e.vec
	return func(m *lmach) uint64 {
		vv, _ := vf(m)
		return nonzeroLanes(vv)
	}
}

// lsb4 packs the per-lane least-significant bit pair.
func (c *lane4Emitter) lsb4(e lexpr4) laneBit4Fn {
	if e.bit != nil {
		return e.bit
	}
	vf := e.vec
	return func(m *lmach) (uint64, uint64) {
		vv, uu := vf(m)
		return packLanes(vv, 0), packLanes(uu, 0)
	}
}

// evalAtBit4 evaluates a packed expression against an earlier sampled row.
func (m *lmach) evalAtBit4(fn laneBit4Fn, idx int) (uint64, uint64) {
	saved, savedIdx := m.laneRow, m.idx
	m.laneRow, m.idx = m.rows[idx], idx
	v, u := fn(m)
	m.laneRow, m.idx = saved, savedIdx
	return v, u
}

func (c *lane4Emitter) ifStmt(ce lexpr4, then, els laneStmtFn) laneStmtFn {
	return laneIf(c.truth(ce), then, els)
}

func (c *lane4Emitter) caseStmt(se lexpr4, items []caseArm[lexpr4, laneStmtFn], deflt laneStmtFn) laneStmtFn {
	return c.laneCase(c.asVec(se), vecArms(items, c.asVec), deflt)
}

func (c *lane4Emitter) packs(re lexpr4, sig *compile.Signal) bool {
	return re.bit != nil && packsWhole(sig)
}

func (c *lane4Emitter) assign(re lexpr4, mode writeMode, sig *compile.Signal, store laneStoreFn) laneStmtFn {
	if c.packs(re, sig) {
		slot, bf := int32(sig.Slot), re.bit
		return func(m *lmach) {
			v, u := bf(m)
			m.putBit(slot, mode, v, u)
		}
	}
	return storeFrom(c.asVec(re), store)
}

func (c *lane4Emitter) storeIndex(sig *compile.Signal, ie lexpr4, mode writeMode, inner laneStoreFn) laneStoreFn {
	return c.indexStore(sig, c.asVec(ie), mode, inner)
}

func (c *lane4Emitter) number(x *verilog.Number) lexpr4 {
	return c.konst(V4{Val: x.Value, Unk: x.Unknown()}.norm())
}

func (c *lane4Emitter) param(v uint64) lexpr4 { return c.konst(known(v)) }

// konst classifies a broadcast constant: single-bit values pack, anything
// else becomes a prefilled register pair.
func (c *lane4Emitter) konst(v V4) lexpr4 {
	if v.Val|v.Unk <= 1 {
		vw, uw := -v.Val, -v.Unk
		return lexpr4{bit: func(*lmach) (uint64, uint64) { return vw, uw }}
	}
	return lexpr4{vec: c.constVec(v.Val, v.Unk)}
}

func (c *lane4Emitter) signal(sig *compile.Signal) lexpr4 {
	slot := int32(sig.Slot)
	if sig.Width == 1 {
		return lexpr4{bit: func(m *lmach) (uint64, uint64) { return m.readBit4(slot) }}
	}
	return lexpr4{vec: func(m *lmach) ([]uint64, []uint64) { return m.readVec4(slot) }}
}

func (c *lane4Emitter) fail(err error) lexpr4 { return lexpr4{vec: c.failVec(err)} }

func (c *lane4Emitter) ternary(ce, xe, ye lexpr4) lexpr4 {
	cf := c.bool3(ce)
	if xe.bit != nil && ye.bit != nil {
		xf, yf := xe.bit, ye.bit
		return lexpr4{bit: func(m *lmach) (uint64, uint64) {
			ct, cx := cf(m)
			if ct == ^uint64(0) {
				return xf(m)
			}
			if ct|cx == 0 {
				return yf(m)
			}
			xv, xu := xf(m)
			yv, yu := yf(m)
			cfalse := ^(ct | cx)
			// x-selected lanes merge the arms (v4Merge, word-wide).
			mu := xu | yu | (xv ^ yv)
			mv := xv & yv &^ mu
			v := (ct & xv) | (cfalse & yv) | (cx & mv)
			u := (ct & xu) | (cfalse & yu) | (cx & mu)
			return v, u
		}}
	}
	xf, yf := c.asVec(xe), c.asVec(ye)
	reg := c.newReg()
	return lexpr4{vec: func(m *lmach) ([]uint64, []uint64) {
		ct, cx := cf(m)
		if ct == ^uint64(0) {
			return xf(m)
		}
		if ct|cx == 0 {
			return yf(m)
		}
		xv, xu := xf(m)
		yv, yu := yf(m)
		ov, ou := m.regs[reg], m.uregs[reg]
		for l := 0; l < 64; l++ {
			switch {
			case ct>>uint(l)&1 == 1:
				ov[l], ou[l] = xv[l], xu[l]
			case cx>>uint(l)&1 == 0:
				ov[l], ou[l] = yv[l], yu[l]
			default:
				mv := v4Merge(V4{Val: xv[l], Unk: xu[l]}, V4{Val: yv[l], Unk: yu[l]})
				ov[l], ou[l] = mv.Val, mv.Unk
			}
		}
		return ov, ou
	}}
}

func (c *lane4Emitter) index(xe, ie lexpr4) lexpr4 {
	xf, idxFn := c.asVec(xe), c.asVec(ie)
	return lexpr4{bit: func(m *lmach) (uint64, uint64) {
		// Base before index, matching the interpreter's order.
		vv, uu := xf(m)
		iv, iu := idxFn(m)
		var v, u uint64
		for l := 0; l < 64; l++ {
			if iu[l] != 0 {
				u |= 1 << uint(l) // unknown index: xBool
				continue
			}
			if idx := iv[l]; idx < 64 {
				v |= ((vv[l] >> idx) & 1) << uint(l)
				u |= ((uu[l] >> idx) & 1) << uint(l)
			}
		}
		return v &^ u, u
	}}
}

func (c *lane4Emitter) slice(xe lexpr4, shift uint, mask uint64) lexpr4 {
	xf := c.asVec(xe)
	if mask == 1 {
		return lexpr4{bit: func(m *lmach) (uint64, uint64) {
			vv, uu := xf(m)
			return packLanes(vv, shift), packLanes(uu, shift)
		}}
	}
	return lexpr4{vec: c.sliceVec(xf, shift, mask)}
}

func (c *lane4Emitter) concat(elems []lexpr4, widths []uint, masks []uint64) lexpr4 {
	return lexpr4{vec: c.concatVec(vecsOf(elems, c.asVec), widths, masks)}
}

func (c *lane4Emitter) repl(fe lexpr4, reps int, uw uint, mask uint64) lexpr4 {
	return lexpr4{vec: c.replVec(c.asVec(fe), reps, uw, mask)}
}

func (c *lane4Emitter) unary(op verilog.UnaryOp, xe lexpr4, mask uint64) (lexpr4, bool) {
	if xe.bit != nil && mask == 1 {
		bf := xe.bit
		switch op {
		case verilog.UnaryLogicalNot, verilog.UnaryBitNot, verilog.UnaryRedXnor:
			// All equal v4Not on a single bit: known flips, x stays x.
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				v, u := bf(m)
				return ^(v | u), u
			}}, true
		case verilog.UnaryMinus, verilog.UnaryPlus, verilog.UnaryRedAnd,
			verilog.UnaryRedOr, verilog.UnaryRedXor:
			// Identities on a canonical single bit (x stays x, -v&1 == v).
			return lexpr4{bit: bf}, true
		}
	}
	vf := c.asVec(xe)
	perLane := func(op func(v V4) V4) lexpr4 {
		reg := c.newReg()
		return lexpr4{vec: func(m *lmach) ([]uint64, []uint64) {
			vv, uu := vf(m)
			ov, ou := m.regs[reg], m.uregs[reg]
			for l := 0; l < 64; l++ {
				r := op(V4{Val: vv[l], Unk: uu[l]})
				ov[l], ou[l] = r.Val, r.Unk
			}
			return ov, ou
		}}
	}
	switch op {
	case verilog.UnaryLogicalNot:
		return perLane(func(v V4) V4 { return v4LogNot(v.maskV(mask)) }), true
	case verilog.UnaryBitNot:
		return perLane(func(v V4) V4 { return v4Not(v, mask) }), true
	case verilog.UnaryMinus:
		return perLane(func(v V4) V4 {
			v = v.maskV(mask)
			if v.Unk != 0 {
				return V4{Unk: mask}
			}
			return known(-v.Val & mask)
		}), true
	case verilog.UnaryPlus:
		return perLane(func(v V4) V4 { return v.maskV(mask) }), true
	case verilog.UnaryRedAnd:
		return perLane(func(v V4) V4 { return v4RedAnd(v, mask) }), true
	case verilog.UnaryRedOr:
		return perLane(func(v V4) V4 { return v4RedOr(v, mask) }), true
	case verilog.UnaryRedXor:
		return perLane(func(v V4) V4 { return v4RedXor(v, mask) }), true
	case verilog.UnaryRedXnor:
		return perLane(func(v V4) V4 { return v4Not(v4RedXor(v, mask), 1) }), true
	}
	return lexpr4{}, false
}

func (c *lane4Emitter) binary(op verilog.BinaryOp, ae, be lexpr4, w int) (lexpr4, bool) {
	bothBit := ae.bit != nil && be.bit != nil
	switch op {
	case verilog.BinLogAnd:
		af, bf := c.bool3(ae), c.bool3(be)
		return lexpr4{bit: func(m *lmach) (uint64, uint64) {
			ta, xa := af(m)
			if ta|xa == 0 {
				return 0, 0 // every lane's left operand is false
			}
			tb, xb := bf(m)
			v := ta & tb
			falseW := ^(ta | xa) | ^(tb | xb)
			return v, ^(v | falseW)
		}}, true
	case verilog.BinLogOr:
		af, bf := c.bool3(ae), c.bool3(be)
		return lexpr4{bit: func(m *lmach) (uint64, uint64) {
			ta, xa := af(m)
			if ta == ^uint64(0) {
				return ta, 0
			}
			tb, xb := bf(m)
			v := ta | tb
			falseW := ^(ta | xa) & ^(tb | xb)
			return v, ^(v | falseW)
		}}, true
	case verilog.BinAnd:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				av, au := af(m)
				bv, bu := bf(m)
				// v4And word-wide: 0 & x = 0 absorption.
				known0 := (^av & ^au) | (^bv & ^bu)
				unk := (au | bu) &^ known0
				return av & bv &^ unk, unk
			}}, true
		}
		return c.vecBin4(ae, be, v4And), true
	case verilog.BinOr:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				av, au := af(m)
				bv, bu := bf(m)
				known1 := av | bv
				return known1, (au | bu) &^ known1
			}}, true
		}
		return c.vecBin4(ae, be, v4Or), true
	case verilog.BinXor:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				av, au := af(m)
				bv, bu := bf(m)
				unk := au | bu
				return (av ^ bv) &^ unk, unk
			}}, true
		}
		return c.vecBin4(ae, be, v4Xor), true
	case verilog.BinXnor:
		mask := maskFor(w)
		if bothBit && mask == 1 {
			af, bf := ae.bit, be.bit
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				av, au := af(m)
				bv, bu := bf(m)
				unk := au | bu
				return ^(av ^ bv) &^ unk, unk
			}}, true
		}
		return c.vecBin4(ae, be, func(a, b V4) V4 { return v4Not(v4Xor(a, b), mask) }), true
	case verilog.BinEq:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				av, au := af(m)
				bv, bu := bf(m)
				unk := au | bu
				return ^(av ^ bv) &^ unk, unk
			}}, true
		}
		return c.packedCmp4(ae, be, v4Eq), true
	case verilog.BinNe:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				av, au := af(m)
				bv, bu := bf(m)
				unk := au | bu
				return (av ^ bv) &^ unk, unk
			}}, true
		}
		return c.packedCmp4(ae, be, func(a, b V4) V4 { return v4LogNot(v4Eq(a, b)) }), true
	case verilog.BinCaseEq:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				av, au := af(m)
				bv, bu := bf(m)
				return ^(av ^ bv) & ^(au ^ bu), 0
			}}, true
		}
		return c.packedCmp4(ae, be, v4CaseEq), true
	case verilog.BinCaseNe:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				av, au := af(m)
				bv, bu := bf(m)
				return (av ^ bv) | (au ^ bu), 0
			}}, true
		}
		return c.packedCmp4(ae, be, func(a, b V4) V4 { return v4LogNot(v4CaseEq(a, b)) }), true
	case verilog.BinLt:
		return c.relBin4(ae, be, bothBit, func(av, bv uint64) uint64 { return ^av & bv },
			func(p, q uint64) bool { return p < q }), true
	case verilog.BinLe:
		return c.relBin4(ae, be, bothBit, func(av, bv uint64) uint64 { return ^av | bv },
			func(p, q uint64) bool { return p <= q }), true
	case verilog.BinGt:
		return c.relBin4(ae, be, bothBit, func(av, bv uint64) uint64 { return av & ^bv },
			func(p, q uint64) bool { return p > q }), true
	case verilog.BinGe:
		return c.relBin4(ae, be, bothBit, func(av, bv uint64) uint64 { return av | ^bv },
			func(p, q uint64) bool { return p >= q }), true
	case verilog.BinAdd:
		return c.vecBin4(ae, be, func(a, b V4) V4 {
			return v4Arith(a, b, func(p, q uint64) uint64 { return p + q })
		}), true
	case verilog.BinSub:
		return c.vecBin4(ae, be, func(a, b V4) V4 {
			return v4Arith(a, b, func(p, q uint64) uint64 { return p - q })
		}), true
	case verilog.BinMul:
		return c.vecBin4(ae, be, func(a, b V4) V4 {
			return v4Arith(a, b, func(p, q uint64) uint64 { return p * q })
		}), true
	case verilog.BinDiv:
		return c.vecBin4(ae, be, v4Div), true
	case verilog.BinMod:
		return c.vecBin4(ae, be, v4Mod), true
	case verilog.BinShl:
		return c.vecBin4(ae, be, v4Shl), true
	case verilog.BinShr:
		return c.vecBin4(ae, be, v4Shr), true
	case verilog.BinAShr:
		return c.vecBin4(ae, be, func(a, b V4) V4 { return v4AShr(a, b, w) }), true
	}
	return lexpr4{}, false
}

// vecBin4 lowers a binary operator to a per-lane loop over the shared V4
// operator function.
func (c *lane4Emitter) vecBin4(ae, be lexpr4, op func(a, b V4) V4) lexpr4 {
	af, bf := c.asVec(ae), c.asVec(be)
	reg := c.newReg()
	return lexpr4{vec: func(m *lmach) ([]uint64, []uint64) {
		av, au := af(m)
		bv, bu := bf(m)
		ov, ou := m.regs[reg], m.uregs[reg]
		for l := 0; l < 64; l++ {
			r := op(V4{Val: av[l], Unk: au[l]}, V4{Val: bv[l], Unk: bu[l]})
			ov[l], ou[l] = r.Val, r.Unk
		}
		return ov, ou
	}}
}

// packedCmp4 lowers a single-bit-result operator to per-lane evaluation
// packed into a word pair.
func (c *lane4Emitter) packedCmp4(ae, be lexpr4, op func(a, b V4) V4) lexpr4 {
	af, bf := c.asVec(ae), c.asVec(be)
	return lexpr4{bit: func(m *lmach) (uint64, uint64) {
		av, au := af(m)
		bv, bu := bf(m)
		var v, u uint64
		for l := 0; l < 64; l++ {
			r := op(V4{Val: av[l], Unk: au[l]}, V4{Val: bv[l], Unk: bu[l]})
			v |= (r.Val & 1) << uint(l)
			u |= (r.Unk & 1) << uint(l)
		}
		return v, u
	}}
}

// relBin4 lowers a relational operator: a word kernel for single-bit
// operands (x if either is x), a per-lane v4RelArith loop otherwise.
func (c *lane4Emitter) relBin4(ae, be lexpr4, bothBit bool, kernel func(av, bv uint64) uint64, op func(p, q uint64) bool) lexpr4 {
	if bothBit {
		af, bf := ae.bit, be.bit
		return lexpr4{bit: func(m *lmach) (uint64, uint64) {
			av, au := af(m)
			bv, bu := bf(m)
			unk := au | bu
			return kernel(av, bv) &^ unk, unk
		}}
	}
	return c.packedCmp4(ae, be, func(a, b V4) V4 { return v4RelArith(a, b, op) })
}

func (c *lane4Emitter) reduce(name string, fe lexpr4, mask uint64) lexpr4 {
	vf := c.asVec(fe)
	switch name {
	case "$countones":
		reg := c.newReg()
		return lexpr4{vec: func(m *lmach) ([]uint64, []uint64) {
			vv, uu := vf(m)
			ov, ou := m.regs[reg], m.uregs[reg]
			for l := 0; l < 64; l++ {
				if uu[l]&mask != 0 {
					ov[l], ou[l] = 0, ^uint64(0)
					continue
				}
				ov[l], ou[l] = uint64(bits.OnesCount64(vv[l]&mask)), 0
			}
			return ov, ou
		}}
	case "$onehot", "$onehot0":
		limit := 1
		exact := name == "$onehot"
		return lexpr4{bit: func(m *lmach) (uint64, uint64) {
			vv, uu := vf(m)
			var v, u uint64
			for l := 0; l < 64; l++ {
				if uu[l]&mask != 0 {
					u |= 1 << uint(l)
					continue
				}
				n := bits.OnesCount64(vv[l] & mask)
				if (exact && n == limit) || (!exact && n <= limit) {
					v |= 1 << uint(l)
				}
			}
			return v, u
		}}
	default: // $isunknown
		return lexpr4{bit: func(m *lmach) (uint64, uint64) {
			_, uu := vf(m)
			var v uint64
			for l := 0; l < 64; l++ {
				if uu[l]&mask != 0 {
					v |= 1 << uint(l)
				}
			}
			return v, 0
		}}
	}
}

func (c *lane4Emitter) past(pos verilog.Pos, fe, _ lexpr4, depth uint64) lexpr4 {
	d := int(depth)
	if fe.bit == nil {
		return lexpr4{vec: c.pastVec(pos, fe.vec, d)}
	}
	bf := fe.bit
	return lexpr4{bit: func(m *lmach) (uint64, uint64) {
		if m.rows == nil {
			m.fail(evalErrf(pos, "$past outside sampled context"))
			return 0, 0
		}
		j := m.idx - d
		if j < 0 {
			return 0, 0 // before start of time: sampled default (0)
		}
		return m.evalAtBit4(bf, j)
	}}
}

func (c *lane4Emitter) sampled(pos verilog.Pos, name string, fe lexpr4) lexpr4 {
	if name == "$rose" || name == "$fell" {
		bf := c.lsb4(fe)
		rose := name == "$rose"
		return lexpr4{bit: func(m *lmach) (uint64, uint64) {
			if m.rows == nil {
				m.fail(evalErrf(pos, "%s outside sampled context", name))
				return 0, 0
			}
			nv, nu := bf(m)
			var bv, bu uint64
			if m.idx > 0 {
				bv, bu = m.evalAtBit4(bf, m.idx-1)
			}
			unk := bu | nu // any x in either sample: xBool (v4Sampled)
			var v uint64
			if rose {
				v = ^bv & nv
			} else {
				v = bv & ^nv
			}
			return v &^ unk, unk
		}}
	}
	// $stable and $changed: same is the lanes whose sample equals the
	// previous one (a zero sample at cycle 0); any x in either is x.
	stable := name == "$stable"
	if fe.bit != nil {
		bf := fe.bit
		return lexpr4{bit: func(m *lmach) (uint64, uint64) {
			if m.rows == nil {
				m.fail(evalErrf(pos, "%s outside sampled context", name))
				return 0, 0
			}
			nv, nu := bf(m)
			var bv, bu uint64
			if m.idx > 0 {
				bv, bu = m.evalAtBit4(bf, m.idx-1)
			}
			unk := bu | nu
			v := ^(bv ^ nv)
			if !stable {
				v = bv ^ nv
			}
			return v &^ unk, unk
		}}
	}
	vf, nowReg := fe.vec, c.newReg()
	return lexpr4{bit: func(m *lmach) (uint64, uint64) {
		if m.rows == nil {
			m.fail(evalErrf(pos, "%s outside sampled context", name))
			return 0, 0
		}
		same, unk := m.sameSample(vf, nowReg)
		if !stable {
			same = ^same
		}
		return same &^ unk, unk
	}}
}
