package sim

import (
	"math/bits"

	"repro/internal/verilog"
)

// This file holds the four-state lane expression kernels whose semantics
// differ from the two-state ones in lanes.go: x literals, the x-merge of
// ?:, an unknown index, and the x rules of the unary, binary and reduction
// operators (div/mod by zero among them). Every other kernel, and the
// machine and statement layer, is lanes.go's, shared by both domains.
// Packed single-bit kernels apply the v4.go per-bit formulas word-wide
// (v4And's absorption, v4Or, v4Xor, v4Not and v4Merge are all bitwise, so
// one word op evaluates them for 64 lanes); everything wider falls back to
// per-lane loops over the exact V4 operator functions shared with plan4.go
// and the reference interpreter.

// lane4Emitter emits the four-state lane closures.
type lane4Emitter struct {
	laneCore
}

func (c *lane4Emitter) number(x *verilog.Number) lexpr {
	return c.konst(V4{Val: x.Value, Unk: x.Unknown()}.norm())
}

func (c *lane4Emitter) ternary(ce, xe, ye lexpr) lexpr {
	cf := c.bool3(ce)
	if xe.bit != nil && ye.bit != nil {
		xf, yf := xe.bit, ye.bit
		return lexpr{bit: func(m *lmach) (uint64, uint64) {
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
	return lexpr{vec: func(m *lmach) ([]uint64, []uint64) {
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

func (c *lane4Emitter) index(xe, ie lexpr) lexpr {
	xf, idxFn := c.asVec(xe), c.asVec(ie)
	return lexpr{bit: func(m *lmach) (uint64, uint64) {
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

func (c *lane4Emitter) unary(op verilog.UnaryOp, xe lexpr, mask uint64) (lexpr, bool) {
	if xe.bit != nil && mask == 1 {
		return bitUnary(op, xe.bit)
	}
	vf := c.asVec(xe)
	perLane := func(op func(v V4) V4) lexpr {
		reg := c.newReg()
		return lexpr{vec: func(m *lmach) ([]uint64, []uint64) {
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
	return lexpr{}, false
}

func (c *lane4Emitter) binary(op verilog.BinaryOp, ae, be lexpr, w int) (lexpr, bool) {
	bothBit := ae.bit != nil && be.bit != nil
	switch op {
	case verilog.BinLogAnd:
		af, bf := c.bool3(ae), c.bool3(be)
		return lexpr{bit: func(m *lmach) (uint64, uint64) {
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
		return lexpr{bit: func(m *lmach) (uint64, uint64) {
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
			return lexpr{bit: func(m *lmach) (uint64, uint64) {
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
			return lexpr{bit: func(m *lmach) (uint64, uint64) {
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
			return lexpr{bit: func(m *lmach) (uint64, uint64) {
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
			return lexpr{bit: func(m *lmach) (uint64, uint64) {
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
			return lexpr{bit: func(m *lmach) (uint64, uint64) {
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
			return lexpr{bit: func(m *lmach) (uint64, uint64) {
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
			return lexpr{bit: func(m *lmach) (uint64, uint64) {
				av, au := af(m)
				bv, bu := bf(m)
				return ^(av ^ bv) & ^(au ^ bu), 0
			}}, true
		}
		return c.packedCmp4(ae, be, v4CaseEq), true
	case verilog.BinCaseNe:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr{bit: func(m *lmach) (uint64, uint64) {
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
	return lexpr{}, false
}

// vecBin4 lowers a binary operator to a per-lane loop over the shared V4
// operator function.
func (c *lane4Emitter) vecBin4(ae, be lexpr, op func(a, b V4) V4) lexpr {
	af, bf := c.asVec(ae), c.asVec(be)
	reg := c.newReg()
	return lexpr{vec: func(m *lmach) ([]uint64, []uint64) {
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
func (c *lane4Emitter) packedCmp4(ae, be lexpr, op func(a, b V4) V4) lexpr {
	af, bf := c.asVec(ae), c.asVec(be)
	return lexpr{bit: func(m *lmach) (uint64, uint64) {
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
func (c *lane4Emitter) relBin4(ae, be lexpr, bothBit bool, kernel func(av, bv uint64) uint64, op func(p, q uint64) bool) lexpr {
	if bothBit {
		af, bf := ae.bit, be.bit
		return lexpr{bit: func(m *lmach) (uint64, uint64) {
			av, au := af(m)
			bv, bu := bf(m)
			unk := au | bu
			return kernel(av, bv) &^ unk, unk
		}}
	}
	return c.packedCmp4(ae, be, func(a, b V4) V4 { return v4RelArith(a, b, op) })
}

func (c *lane4Emitter) reduce(name string, fe lexpr, mask uint64) lexpr {
	vf := c.asVec(fe)
	switch name {
	case "$countones":
		reg := c.newReg()
		return lexpr{vec: func(m *lmach) ([]uint64, []uint64) {
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
		return lexpr{bit: func(m *lmach) (uint64, uint64) {
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
		return lexpr{bit: func(m *lmach) (uint64, uint64) {
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
