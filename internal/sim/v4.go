package sim

import (
	"math/bits"
	"strconv"
)

// Mode selects the simulator's value domain.
type Mode int

// Simulation modes. TwoState is the zero value and New's domain: it keeps
// the historical two-valued semantics, so corpora, goldens and benchmark
// trajectories stay comparable. FourState
// enables the x-propagating domain: registers initialise to x until reset
// or first assignment, x/z literal bits are honoured, and division by zero
// yields all-x instead of zero.
const (
	TwoState Mode = iota
	FourState
)

// String names the mode.
func (m Mode) String() string {
	if m == FourState {
		return "four-state"
	}
	return "two-state"
}

// V4 is a four-state value as two 64-bit planes: Val holds the known bit
// values and Unk marks unknown bits (z folds into x — the simulator has no
// drive-strength model, so a floating bit and a conflicting bit are both
// just "unknown"). The representation is kept canonical: Val is 0 wherever
// Unk is 1, so two V4s are equal iff both planes are equal, and the Val
// plane alone is exactly the two-state projection (unknowns read as 0).
type V4 struct {
	Val uint64
	Unk uint64
}

// known wraps a fully-known value.
func known(v uint64) V4 { return V4{Val: v} }

// xBool is the unknown single-bit boolean.
var xBool = V4{Unk: 1}

// allX is the fully-unknown 64-bit value; callers mask to width on store.
var allX = V4{Unk: ^uint64(0)}

// IsTrue reports whether the value is definitely nonzero: at least one bit
// is a known 1. (Canonical form makes this a plain Val test.)
func (v V4) IsTrue() bool { return v.Val != 0 }

// IsFalse reports whether the value is definitely zero: every bit is a
// known 0.
func (v V4) IsFalse() bool { return v.Val == 0 && v.Unk == 0 }

// IsXBool reports whether the value's truth is undetermined: no known 1
// bit, but at least one unknown bit.
func (v V4) IsXBool() bool { return v.Val == 0 && v.Unk != 0 }

// norm restores the canonical form (unknown bits read as 0 in Val).
func (v V4) norm() V4 { v.Val &^= v.Unk; return v }

// maskV applies a width mask to both planes.
func (v V4) maskV(m uint64) V4 { v.Val &= m; v.Unk &= m; return v }

// boolV4 wraps a known boolean.
func boolV4(b bool) V4 {
	if b {
		return V4{Val: 1}
	}
	return V4{}
}

// FormatV4 renders a sampled value for waveform tables and failure logs:
// plain decimal when fully known, a bare "x" when every in-width bit is
// unknown, and per-bit binary (b0000001x) when only some bits are — the
// repair model needs to see which bits a reset bug actually left unknown.
func FormatV4(v V4, width int) string {
	if width <= 0 || width > 64 {
		width = 64
	}
	m := maskFor(width)
	switch {
	case v.Unk&m == 0:
		return strconv.FormatUint(v.Val&m, 10)
	case v.Unk&m == m:
		return "x"
	}
	buf := make([]byte, 0, width+1)
	buf = append(buf, 'b')
	for i := width - 1; i >= 0; i-- {
		bit := uint64(1) << uint(i)
		switch {
		case v.Unk&bit != 0:
			buf = append(buf, 'x')
		case v.Val&bit != 0:
			buf = append(buf, '1')
		default:
			buf = append(buf, '0')
		}
	}
	return string(buf)
}

// ---------------------------------------------------------------------------
// Four-state operator semantics, shared by the reference interpreter
// (eval4.go) and the compiled plan (plan4.go) so the two engines implement
// the LRM rules from one definition.
// ---------------------------------------------------------------------------

// v4And is per-bit AND with absorption: 0 & x = 0.
func v4And(a, b V4) V4 {
	known0 := (^a.Val & ^a.Unk) | (^b.Val & ^b.Unk)
	unk := (a.Unk | b.Unk) &^ known0
	return V4{Val: a.Val & b.Val &^ unk, Unk: unk}
}

// v4Or is per-bit OR with absorption: 1 | x = 1.
func v4Or(a, b V4) V4 {
	known1 := a.Val | b.Val
	return V4{Val: known1, Unk: (a.Unk | b.Unk) &^ known1}
}

// v4Xor is per-bit XOR: any unknown input bit is unknown in the result.
func v4Xor(a, b V4) V4 {
	unk := a.Unk | b.Unk
	return V4{Val: (a.Val ^ b.Val) &^ unk, Unk: unk}
}

// v4Not is per-bit NOT in width mask m.
func v4Not(a V4, m uint64) V4 {
	return V4{Val: ^a.Val & m &^ a.Unk, Unk: a.Unk & m}
}

// v4Merge combines the two arms of an x-selected conditional: bits that
// agree and are known in both arms keep their value, every other bit is x
// (IEEE 1364 §5.1.13).
func v4Merge(x, y V4) V4 {
	unk := x.Unk | y.Unk | (x.Val ^ y.Val)
	return V4{Val: x.Val & y.Val &^ unk, Unk: unk}
}

// v4Eq is logical equality: x if any input bit is unknown.
func v4Eq(a, b V4) V4 {
	if a.Unk|b.Unk != 0 {
		return xBool
	}
	return boolV4(a.Val == b.Val)
}

// v4CaseEq is case equality (===): always known, compares both planes.
func v4CaseEq(a, b V4) V4 { return boolV4(a == b) }

// v4LogNot is the three-valued logical NOT.
func v4LogNot(a V4) V4 {
	switch {
	case a.IsTrue():
		return V4{}
	case a.IsFalse():
		return V4{Val: 1}
	}
	return xBool
}

// v4RedAnd reduces AND over width mask m: 0 if any bit is known 0, 1 if
// all bits are known 1, x otherwise.
func v4RedAnd(a V4, m uint64) V4 {
	a = a.maskV(m)
	switch {
	case a.Val|a.Unk != m:
		return V4{}
	case a.Unk != 0:
		return xBool
	}
	return V4{Val: 1}
}

// v4RedOr reduces OR over width mask m.
func v4RedOr(a V4, m uint64) V4 {
	a = a.maskV(m)
	switch {
	case a.Val != 0:
		return V4{Val: 1}
	case a.Unk != 0:
		return xBool
	}
	return V4{}
}

// v4RedXor reduces XOR over width mask m: x if any bit is unknown.
func v4RedXor(a V4, m uint64) V4 {
	a = a.maskV(m)
	if a.Unk != 0 {
		return xBool
	}
	return V4{Val: uint64(bits.OnesCount64(a.Val) & 1)}
}

// v4Shl shifts left: an unknown shift amount poisons the whole result.
func v4Shl(a, b V4) V4 {
	if b.Unk != 0 {
		return allX
	}
	if b.Val >= 64 {
		return V4{}
	}
	return V4{Val: a.Val << b.Val, Unk: a.Unk << b.Val}
}

// v4Shr shifts right logically.
func v4Shr(a, b V4) V4 {
	if b.Unk != 0 {
		return allX
	}
	if b.Val >= 64 {
		return V4{}
	}
	return V4{Val: a.Val >> b.Val, Unk: a.Unk >> b.Val}
}

// v4AShr shifts right arithmetically in the left operand's self-determined
// width w: an unknown sign bit fills the vacated positions with x.
func v4AShr(a, b V4, w int) V4 {
	if b.Unk != 0 {
		return allX
	}
	return V4{Val: ashr(a.Val, b.Val, w), Unk: ashr(a.Unk, b.Val, w)}.norm()
}

// v4Arith lifts a known-only binary operation: any unknown input bit makes
// the whole result x (the LRM rule for arithmetic and relational
// operators).
func v4Arith(a, b V4, op func(x, y uint64) uint64) V4 {
	if a.Unk|b.Unk != 0 {
		return allX
	}
	return known(op(a.Val, b.Val))
}

// v4RelArith is v4Arith for 1-bit relational results (x is xBool, not a
// 64-bit-wide x).
func v4RelArith(a, b V4, op func(x, y uint64) bool) V4 {
	if a.Unk|b.Unk != 0 {
		return xBool
	}
	return boolV4(op(a.Val, b.Val))
}

// v4Div implements / with the four-state rule: division by zero (or any
// unknown input) is all-x, not zero.
func v4Div(a, b V4) V4 {
	if a.Unk|b.Unk != 0 || b.Val == 0 {
		return allX
	}
	return known(a.Val / b.Val)
}

// v4Mod implements % with the same rule.
func v4Mod(a, b V4) V4 {
	if a.Unk|b.Unk != 0 || b.Val == 0 {
		return allX
	}
	return known(a.Val % b.Val)
}
