package lint

import (
	"math/bits"

	"repro/internal/compile"
	"repro/internal/verilog"
)

// widths checks every assignment (continuous and procedural) for a
// right-hand side wider than its target (truncation, Warning) or narrower
// (implicit zero-extension, Info). Unsized literals are measured by their
// minimum bit count rather than the 32 bits self-determination assigns
// them, and narrow unsized literals never trigger the extension note —
// `x <= 0` is idiomatic, not a mismatch.
func (a *analysis) widths() {
	check := func(pos verilog.Pos, lhs, rhs verilog.Expr) {
		lw, ok := a.lhsWidth(lhs)
		if !ok {
			return
		}
		rw, exact := effWidth(rhs, a.d)
		if rw <= 0 {
			return
		}
		name := ""
		if id, isIdent := lhs.(*verilog.Ident); isIdent {
			name = id.Name
		}
		if rw > lw {
			a.addf(RuleWidth, Warning, pos, name,
				"%d-bit expression assigned to %d-bit target (truncated)", rw, lw)
			return
		}
		if _, isNum := rhs.(*verilog.Number); isNum {
			return // literals size themselves to the target
		}
		if exact && rw < lw {
			a.addf(RuleWidth, Info, pos, name,
				"%d-bit expression assigned to %d-bit target (zero-extended)", rw, lw)
		}
	}
	for _, as := range a.d.Assigns {
		check(as.Pos, as.LHS, as.RHS)
	}
	procs := append(append([]*verilog.Always{}, a.d.CombAlways...), a.d.SeqAlways...)
	for _, al := range procs {
		verilog.WalkStmt(al.Body, func(s verilog.Stmt) {
			switch x := s.(type) {
			case *verilog.Blocking:
				check(x.Pos, x.LHS, x.RHS)
			case *verilog.NonBlocking:
				check(x.Pos, x.LHS, x.RHS)
			}
		})
	}
}

// lhsWidth computes the bit width of an assignment target.
func (a *analysis) lhsWidth(lhs verilog.Expr) (int, bool) {
	switch x := lhs.(type) {
	case *verilog.Ident:
		if sig, ok := a.d.Signals[x.Name]; ok {
			return sig.Width, true
		}
	case *verilog.Index:
		return 1, true
	case *verilog.Slice:
		return sliceWidth(x, a.d)
	case *verilog.Concat:
		total := 0
		for _, el := range x.Elems {
			w, ok := a.lhsWidth(el)
			if !ok {
				return 0, false
			}
			total += w
		}
		return total, true
	}
	return 0, false
}

// sliceWidth is the width of a part-select whose bounds compile.Fold folds
// in descending order, as internal/compile requires of every part-select.
func sliceWidth(x *verilog.Slice, d *compile.Design) (int, bool) {
	hi, okH := compile.Fold(x.Hi, d.Params)
	lo, okL := compile.Fold(x.Lo, d.Params)
	if okH && okL && hi >= lo {
		return int(hi-lo) + 1, true
	}
	return 0, false
}

// minBits is the minimum width that can represent v (at least 1).
func minBits(v uint64) int {
	if n := bits.Len64(v); n > 0 {
		return n
	}
	return 1
}

// effWidth estimates the effective width of an expression for mismatch
// checking. It differs from sim.ExprWidth in two ways: unsized literals
// count their minimum bits instead of 32, and the second return value
// reports whether the estimate is exact (false for shifts and other
// shapes whose true width depends on runtime values, which suppresses the
// low-signal extension note but still allows the truncation warning — a
// shift can only widen the uncertainty upward from its operand).
func effWidth(e verilog.Expr, d *compile.Design) (int, bool) {
	switch x := e.(type) {
	case *verilog.Number:
		if x.Width > 0 {
			return x.Width, true
		}
		return minBits(x.Value | x.Unknown()), true
	case *verilog.Ident:
		if sig := d.Signals[x.Name]; sig != nil && sig.Width > 0 {
			return sig.Width, true
		}
		if v, ok := d.Params[x.Name]; ok {
			return minBits(v), true
		}
		return 0, false
	case *verilog.Unary:
		switch x.Op {
		case verilog.UnaryLogicalNot, verilog.UnaryRedAnd, verilog.UnaryRedOr,
			verilog.UnaryRedXor, verilog.UnaryRedXnor:
			return 1, true
		}
		return effWidth(x.X, d)
	case *verilog.Binary:
		switch x.Op {
		case verilog.BinLogAnd, verilog.BinLogOr,
			verilog.BinEq, verilog.BinNe, verilog.BinCaseEq, verilog.BinCaseNe,
			verilog.BinLt, verilog.BinLe, verilog.BinGt, verilog.BinGe:
			return 1, true
		case verilog.BinShl, verilog.BinShr, verilog.BinAShr:
			w, _ := effWidth(x.X, d)
			return w, false
		case verilog.BinMod:
			// a % b with constant b is bounded below b, whatever a's width;
			// `(ptr + d) % N` into a ceil(log2 N)-bit pointer is idiomatic.
			if m, ok := compile.Fold(x.Y, d.Params); ok && m > 0 {
				return minBits(m - 1), true
			}
		}
		wx, okX := effWidth(x.X, d)
		wy, okY := effWidth(x.Y, d)
		if wx < wy {
			wx, okX = wy, okY && okX
		} else {
			okX = okX && okY
		}
		return wx, okX
	case *verilog.Ternary:
		wx, okX := effWidth(x.X, d)
		wy, okY := effWidth(x.Y, d)
		if wx < wy {
			wx = wy
		}
		return wx, okX && okY
	case *verilog.Index:
		return 1, true
	case *verilog.Slice:
		return sliceWidth(x, d)
	case *verilog.Concat:
		total := 0
		exact := true
		for _, el := range x.Elems {
			w, ok := effWidth(el, d)
			if w <= 0 {
				return 0, false
			}
			total += w
			exact = exact && ok
		}
		return total, exact
	case *verilog.Repl:
		n, ok := compile.Fold(x.Count, d.Params)
		if !ok {
			return 0, false
		}
		w, ok := effWidth(x.Elem, d)
		if w <= 0 {
			return 0, false
		}
		return int(n) * w, ok
	}
	return 0, false // calls and anything unmodelled: no claim
}
