package sim

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/verilog"
)

// This file is the lowering front end shared by the four execution engines:
// the compiled plan in each value domain (plan.go, plan4.go) and the lane
// engine in each value domain (lanes.go, lanes4.go). It walks the design's
// AST and makes every plannability decision in one place: which statements,
// assignment targets and expressions lower, the constant slice bounds,
// replication counts and $past depths, and the static widths masks depend
// on. Each engine is an emitter: given operands the front end has already
// lowered and validated, it returns the closure its machine runs. Emitters
// are called only while a plan is built, and the front end creates no
// closure a simulation cycle runs, so the per-cycle loop executes engine
// code specialised to one machine layout and pays no dispatch.

// errUnplannable aborts plan construction; the design falls back to the
// reference interpreter (or, for the lane engines, to scalar runs).
type errUnplannable struct{ reason string }

func (e errUnplannable) Error() string { return "sim: unplannable design: " + e.reason }

// writeMode selects where a compiled store lands and what read-modify-write
// bit/slice targets use as their base value.
type writeMode int

const (
	wAssign      writeMode = iota // continuous assign: direct, change-detected
	wComb                         // comb always: blocking overlay
	wSeqBlocking                  // seq blocking: overlay + program-order commit
	wSeqNBA                       // seq nonblocking: program-order commit only
)

// emitter is one engine's build-time interface to the front end. E is a
// compiled expression, S a compiled statement, T a compiled assignment
// target (a store receiving the unmasked value) and A a compiled
// continuous assignment. Every argument is already lowered and checked;
// emitters decide nothing about plannability except that an operator
// outside the AST's closed sets reports false.
type emitter[E, S, T, A any] interface {
	number(x *verilog.Number) E
	param(v uint64) E
	signal(sig *compile.Signal) E
	// unary applies op to an operand whose static width mask is mask.
	unary(op verilog.UnaryOp, x E, mask uint64) (E, bool)
	// binary applies op; w is the static width the operator masks to
	// (the wider operand for ~^, the left operand for >>>), else 0.
	binary(op verilog.BinaryOp, a, b E, w int) (E, bool)
	ternary(cond, x, y E) E
	index(x, idx E) E
	slice(x E, shift uint, mask uint64) E
	// concat joins elems MSB first; element i is masks[i] wide and shifts
	// the accumulated value left by widths[i].
	concat(elems []E, widths []uint, masks []uint64) E
	repl(x E, reps int, w uint, mask uint64) E
	// reduce lowers $countones, $onehot, $onehot0 and $isunknown over an
	// operand with static width mask mask (0 for two-state $isunknown,
	// which needs no width).
	reduce(name string, x E, mask uint64) E
	// past lowers $past(x, depth). Lane emitters receive the constant
	// depth n, already in range; scalar emitters receive the compiled depth
	// expression, the zero E when the call has no depth argument.
	past(pos verilog.Pos, x, depth E, n uint64) E
	// sampled lowers $rose, $fell, $stable and $changed.
	sampled(pos verilog.Pos, name string, x E) E
	// fail is an expression that reports err when evaluated.
	fail(err error) E

	nop() S
	block(body []S) S
	// ifStmt lowers if (cond) then else els; els is the zero S when the
	// statement has no else branch.
	ifStmt(cond E, then, els S) S
	// caseStmt lowers a case statement; deflt is the zero S without a
	// default arm.
	caseStmt(subj E, arms []caseArm[E, S], deflt S) S
	// packs reports whether the emitter stores rhs word-wide into sig, the
	// whole-signal target of an assignment (nil for any other target); the
	// assignment then lowers no store and receives the zero T.
	packs(rhs E, sig *compile.Signal) bool
	// assign lowers a procedural assignment of rhs through store under
	// mode; sig is as for packs.
	assign(rhs E, mode writeMode, sig *compile.Signal, store T) S
	// contAssign lowers a continuous assignment like assign under wAssign.
	contAssign(rhs E, sig *compile.Signal, store T) A

	// store writes a whole signal under mode, masking to its width.
	store(sig *compile.Signal, mode writeMode) T
	// storeIndex writes bit idx of sig through inner, the whole-signal
	// store; an unknown index or one >= 64 writes nothing.
	storeIndex(sig *compile.Signal, idx E, mode writeMode, inner T) T
	// storeSlice writes the bits of sig under sm (the part-select mask,
	// already shifted into place) from the value shifted left by shift.
	storeSlice(sig *compile.Signal, shift uint, sm uint64, mode writeMode, inner T) T
	// storeConcat writes part i from the value shifted right by shifts[i]
	// and masked by masks[i], in order.
	storeConcat(parts []T, shifts []uint, masks []uint64) T
}

// caseArm is one labelled case item.
type caseArm[E, S any] struct {
	labels []E
	body   S
}

// lowered is one engine's lowering of a design.
type lowered[E, S, A any] struct {
	assigns []A
	combs   []S
	seqs    []S

	// sva maps every expression reachable from the design's assertions
	// (terms, disable-iff) to its compiled form, keyed by AST node
	// identity. allSVA reports that every one of them lowered.
	sva    map[verilog.Expr]E
	allSVA bool
}

// lower runs the front end over d for one emitter. four selects the
// four-state constant folding (an x-bearing bound, count or depth does not
// lower); constPast requires $past depths to be compile-time constants,
// which the lane engines need because their sampled-frame swap is
// whole-machine. ok is false when some design construct does not lower.
// An assertion expression that does not lower only stays out of sva: the
// trace evaluators fall back to the interpreter for it.
func lower[E, S, T, A any](d *compile.Design, em emitter[E, S, T, A], four, constPast bool) (l lowered[E, S, A], ok bool) {
	f := &lowerer[E, S, T, A]{planCompiler: planCompiler{d: d, four: four}, em: em, constPast: constPast}
	for _, as := range d.Assigns {
		rhs, sig, store, err := f.assignment(as.LHS, as.RHS, wAssign)
		if err != nil {
			return l, false
		}
		l.assigns = append(l.assigns, em.contAssign(rhs, sig, store))
	}
	for _, al := range d.CombAlways {
		body, err := f.stmt(al.Body, false)
		if err != nil {
			return l, false
		}
		l.combs = append(l.combs, body)
	}
	for _, al := range d.SeqAlways {
		body, err := f.stmt(al.Body, true)
		if err != nil {
			return l, false
		}
		l.seqs = append(l.seqs, body)
	}
	l.sva, l.allSVA = map[verilog.Expr]E{}, true
	sva := func(e verilog.Expr) {
		if e == nil {
			return
		}
		if fn, err := f.expr(e); err == nil {
			l.sva[e] = fn
		} else {
			l.allSVA = false
		}
	}
	for i := range d.Asserts {
		a := &d.Asserts[i]
		sva(a.DisableIff)
		if a.Seq != nil {
			for _, t := range a.Seq.Antecedent {
				sva(t.Expr)
			}
			for _, t := range a.Seq.Consequent {
				sva(t.Expr)
			}
		}
	}
	return l, true
}

// planCompiler holds the design-level analysis every lowering shares:
// parameter folding and static widths.
type planCompiler struct {
	d    *compile.Design
	four bool // fold constants in the four-state domain
}

// lowerer is the front end's walk for one emitter.
type lowerer[E, S, T, A any] struct {
	planCompiler
	em        emitter[E, S, T, A]
	constPast bool
}

// constEval evaluates an expression that may reference parameters but no
// signals, at plan-compile time, in the two-state domain.
func (c *planCompiler) constEval(e verilog.Expr) (uint64, bool) {
	v, err := Eval(e, paramOnlyEnv{d: c.d})
	return v, err == nil
}

// constant folds a slice bound, replication count or $past depth in the
// lowering's value domain. Four-state folding requires every bit known: an
// x/z-bearing constant (e.g. in[2'b1x:0]) does not lower, so the design
// falls back to the reference interpreter's four-state rules (unknown
// bounds read all-x, unknown-bound stores are no-ops) instead of silently
// folding the x bits to 0.
func (c *planCompiler) constant(e verilog.Expr) (uint64, bool) {
	if !c.four {
		return c.constEval(e)
	}
	v, err := Eval4(e, paramOnlyEnv{d: c.d})
	if err != nil || v.Unk != 0 {
		return 0, false
	}
	return v.Val, true
}

// paramOnlyEnv resolves parameters only; signal references fail, marking
// the expression non-constant.
type paramOnlyEnv struct{ d *compile.Design }

// Value implements Env.
func (e paramOnlyEnv) Value(name string) (uint64, bool) {
	v, ok := e.d.Params[name]
	return v, ok
}

// Width implements Env.
func (paramOnlyEnv) Width(string) int { return 0 }

// staticWidth mirrors ExprWidth but requires the width to be decidable at
// plan-compile time (slice bounds and replication counts constant). Both
// value domains mask by these two-state widths.
func (c *planCompiler) staticWidth(e verilog.Expr) (int, bool) {
	switch x := e.(type) {
	case *verilog.Number:
		if x.Width > 0 {
			return x.Width, true
		}
		return 32, true
	case *verilog.Ident:
		if sig := c.d.Signals[x.Name]; sig != nil && sig.Width > 0 {
			return sig.Width, true
		}
		return 32, true
	case *verilog.Unary:
		switch x.Op {
		case verilog.UnaryLogicalNot, verilog.UnaryRedAnd, verilog.UnaryRedOr,
			verilog.UnaryRedXor, verilog.UnaryRedXnor:
			return 1, true
		}
		return c.staticWidth(x.X)
	case *verilog.Binary:
		switch x.Op {
		case verilog.BinLogAnd, verilog.BinLogOr, verilog.BinEq, verilog.BinNe,
			verilog.BinCaseEq, verilog.BinCaseNe, verilog.BinLt, verilog.BinLe,
			verilog.BinGt, verilog.BinGe:
			return 1, true
		case verilog.BinShl, verilog.BinShr, verilog.BinAShr:
			return c.staticWidth(x.X)
		}
		a, ok1 := c.staticWidth(x.X)
		b, ok2 := c.staticWidth(x.Y)
		return max(a, b), ok1 && ok2
	case *verilog.Ternary:
		a, ok1 := c.staticWidth(x.X)
		b, ok2 := c.staticWidth(x.Y)
		return max(a, b), ok1 && ok2
	case *verilog.Index:
		return 1, true
	case *verilog.Slice:
		hi, ok1 := c.constEval(x.Hi)
		lo, ok2 := c.constEval(x.Lo)
		if ok1 && ok2 && hi >= lo {
			return int(hi-lo) + 1, true
		}
		return 1, false
	case *verilog.Concat:
		w := 0
		for _, el := range x.Elems {
			ew, ok := c.staticWidth(el)
			if !ok {
				return 1, false
			}
			w += ew
		}
		return w, true
	case *verilog.Repl:
		n, ok := c.constEval(x.Count)
		if !ok {
			return 1, false
		}
		ew, ok2 := c.staticWidth(x.Elem)
		return int(n) * ew, ok2
	case *verilog.Call:
		switch x.Name {
		case "$rose", "$fell", "$stable", "$changed", "$onehot", "$onehot0", "$isunknown":
			return 1, true
		case "$countones":
			return 32, true
		}
		if len(x.Args) > 0 {
			return c.staticWidth(x.Args[0])
		}
		return 32, true
	}
	return 32, false
}

// operandWidth is the widest static width among operands whose value an
// operator masks; every one of them must have a static width.
func (c *planCompiler) operandWidth(operands ...verilog.Expr) (int, error) {
	w := 0
	for _, e := range operands {
		ew, ok := c.staticWidth(e)
		if !ok {
			return 0, errUnplannable{"dynamic operand width"}
		}
		w = max(w, ew)
	}
	return w, nil
}

// ---------------------------------------------------------------------------
// Statements and assignment targets
// ---------------------------------------------------------------------------

func (f *lowerer[E, S, T, A]) stmt(s verilog.Stmt, seq bool) (S, error) {
	var zero S
	switch x := s.(type) {
	case nil:
		return f.em.nop(), nil
	case *verilog.Block:
		body := make([]S, 0, len(x.Stmts))
		for _, sub := range x.Stmts {
			fn, err := f.stmt(sub, seq)
			if err != nil {
				return zero, err
			}
			body = append(body, fn)
		}
		return f.em.block(body), nil
	case *verilog.Blocking:
		mode := wComb
		if seq {
			mode = wSeqBlocking
		}
		return f.assign(x.LHS, x.RHS, mode)
	case *verilog.NonBlocking:
		// In combinational blocks the interpreter executes nonblocking
		// assignments with blocking semantics; mirror that.
		mode := wComb
		if seq {
			mode = wSeqNBA
		}
		return f.assign(x.LHS, x.RHS, mode)
	case *verilog.If:
		cond, err := f.expr(x.Cond)
		if err != nil {
			return zero, err
		}
		then, err := f.stmt(x.Then, seq)
		if err != nil {
			return zero, err
		}
		var els S
		if x.Else != nil {
			if els, err = f.stmt(x.Else, seq); err != nil {
				return zero, err
			}
		}
		return f.em.ifStmt(cond, then, els), nil
	case *verilog.Case:
		subj, err := f.expr(x.Subject)
		if err != nil {
			return zero, err
		}
		arms := make([]caseArm[E, S], 0, len(x.Items))
		var deflt S
		for _, item := range x.Items {
			body, err := f.stmt(item.Body, seq)
			if err != nil {
				return zero, err
			}
			if item.Exprs == nil {
				deflt = body
				continue
			}
			labels := make([]E, 0, len(item.Exprs))
			for _, le := range item.Exprs {
				lf, err := f.expr(le)
				if err != nil {
					return zero, err
				}
				labels = append(labels, lf)
			}
			arms = append(arms, caseArm[E, S]{labels: labels, body: body})
		}
		return f.em.caseStmt(subj, arms, deflt), nil
	}
	return zero, errUnplannable{fmt.Sprintf("statement %T", s)}
}

func (f *lowerer[E, S, T, A]) assign(lhs, rhs verilog.Expr, mode writeMode) (S, error) {
	r, sig, store, err := f.assignment(lhs, rhs, mode)
	if err != nil {
		var zero S
		return zero, err
	}
	return f.em.assign(r, mode, sig, store), nil
}

// assignment lowers an assignment's RHS and, unless the emitter packs the
// RHS into a whole single-bit signal, its target. sig is the signal the
// target names whole, or nil.
func (f *lowerer[E, S, T, A]) assignment(lhs, rhs verilog.Expr, mode writeMode) (r E, sig *compile.Signal, store T, err error) {
	if r, err = f.expr(rhs); err != nil {
		return r, nil, store, err
	}
	if id, ok := lhs.(*verilog.Ident); ok {
		sig = f.d.Signals[id.Name]
	}
	if !f.em.packs(r, sig) {
		store, err = f.store(lhs, mode)
	}
	return r, sig, store, err
}

// store lowers an assignment target. The store receives the unmasked RHS
// value and applies the mode's write discipline.
func (f *lowerer[E, S, T, A]) store(lhs verilog.Expr, mode writeMode) (T, error) {
	var zero T
	switch x := lhs.(type) {
	case *verilog.Ident:
		sig, err := f.targetSignal(x)
		if err != nil {
			return zero, err
		}
		return f.em.store(sig, mode), nil
	case *verilog.Index:
		sig, err := f.targetSignal(x.X)
		if err != nil {
			return zero, err
		}
		idx, err := f.expr(x.Idx)
		if err != nil {
			return zero, err
		}
		return f.em.storeIndex(sig, idx, mode, f.em.store(sig, mode)), nil
	case *verilog.Slice:
		sig, err := f.targetSignal(x.X)
		if err != nil {
			return zero, err
		}
		hi, ok1 := f.constant(x.Hi)
		lo, ok2 := f.constant(x.Lo)
		if !ok1 || !ok2 {
			return zero, errUnplannable{"dynamic slice bounds in assignment target"}
		}
		if lo > hi {
			return zero, errUnplannable{"invalid slice target"}
		}
		sm := maskFor(int(hi-lo)+1) << lo
		return f.em.storeSlice(sig, uint(lo), sm, mode, f.em.store(sig, mode)), nil
	case *verilog.Concat:
		total := 0
		widths := make([]int, len(x.Elems))
		for i, el := range x.Elems {
			w, ok := f.staticWidth(el)
			if !ok {
				return zero, errUnplannable{"dynamic width in concat assignment target"}
			}
			widths[i] = w
			total += w
		}
		parts := make([]T, len(x.Elems))
		shifts := make([]uint, len(x.Elems))
		masks := make([]uint64, len(x.Elems))
		shift := total
		for i, el := range x.Elems {
			shift -= widths[i]
			st, err := f.store(el, mode)
			if err != nil {
				return zero, err
			}
			parts[i], shifts[i], masks[i] = st, uint(shift), maskFor(widths[i])
		}
		return f.em.storeConcat(parts, shifts, masks), nil
	}
	return zero, errUnplannable{fmt.Sprintf("assignment target %T", lhs)}
}

// targetSignal resolves the signal a whole, bit or part-select target
// writes.
func (f *lowerer[E, S, T, A]) targetSignal(x verilog.Expr) (*compile.Signal, error) {
	id, ok := x.(*verilog.Ident)
	if !ok {
		return nil, errUnplannable{"unsupported assignment target"}
	}
	sig := f.d.Signals[id.Name]
	if sig == nil {
		return nil, errUnplannable{"assignment to unknown signal " + id.Name}
	}
	return sig, nil
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

func (f *lowerer[E, S, T, A]) expr(e verilog.Expr) (E, error) {
	var zero E
	switch x := e.(type) {
	case *verilog.Number:
		return f.em.number(x), nil
	case *verilog.Ident:
		if sig := f.d.Signals[x.Name]; sig != nil {
			return f.em.signal(sig), nil
		}
		if v, ok := f.d.Params[x.Name]; ok {
			return f.em.param(v), nil
		}
		return zero, errUnplannable{"unknown signal " + x.Name}
	case *verilog.Unary:
		a, err := f.expr(x.X)
		if err != nil {
			return zero, err
		}
		w, err := f.operandWidth(x.X)
		if err != nil {
			return zero, err
		}
		if fn, ok := f.em.unary(x.Op, a, maskFor(w)); ok {
			return fn, nil
		}
		return zero, errUnplannable{"unary operator " + x.Op.String()}
	case *verilog.Binary:
		a, err := f.expr(x.X)
		if err != nil {
			return zero, err
		}
		b, err := f.expr(x.Y)
		if err != nil {
			return zero, err
		}
		var w int
		switch x.Op {
		case verilog.BinXnor:
			w, err = f.operandWidth(x.X, x.Y)
		case verilog.BinAShr:
			w, err = f.operandWidth(x.X)
		}
		if err != nil {
			return zero, err
		}
		if fn, ok := f.em.binary(x.Op, a, b, w); ok {
			return fn, nil
		}
		return zero, errUnplannable{"binary operator " + x.Op.String()}
	case *verilog.Ternary:
		cond, err := f.expr(x.Cond)
		if err != nil {
			return zero, err
		}
		a, err := f.expr(x.X)
		if err != nil {
			return zero, err
		}
		b, err := f.expr(x.Y)
		if err != nil {
			return zero, err
		}
		return f.em.ternary(cond, a, b), nil
	case *verilog.Index:
		a, err := f.expr(x.X)
		if err != nil {
			return zero, err
		}
		idx, err := f.expr(x.Idx)
		if err != nil {
			return zero, err
		}
		return f.em.index(a, idx), nil
	case *verilog.Slice:
		a, err := f.expr(x.X)
		if err != nil {
			return zero, err
		}
		hi, ok1 := f.constant(x.Hi)
		lo, ok2 := f.constant(x.Lo)
		if !ok1 || !ok2 {
			return zero, errUnplannable{"dynamic slice bounds"}
		}
		if lo > hi || lo >= 64 {
			return f.em.fail(evalErrf(x.Pos, "invalid slice [%d:%d]", hi, lo)), nil
		}
		return f.em.slice(a, uint(lo), maskFor(int(hi-lo)+1)), nil
	case *verilog.Concat:
		elems := make([]E, len(x.Elems))
		widths := make([]uint, len(x.Elems))
		masks := make([]uint64, len(x.Elems))
		for i, el := range x.Elems {
			w, ok := f.staticWidth(el)
			if !ok {
				return zero, errUnplannable{"dynamic width in concat"}
			}
			fn, err := f.expr(el)
			if err != nil {
				return zero, err
			}
			elems[i], widths[i], masks[i] = fn, uint(w), maskFor(w)
		}
		return f.em.concat(elems, widths, masks), nil
	case *verilog.Repl:
		n, ok := f.constant(x.Count)
		if !ok {
			return zero, errUnplannable{"dynamic replication count"}
		}
		w, ok := f.staticWidth(x.Elem)
		if !ok {
			return zero, errUnplannable{"dynamic width in replication"}
		}
		fn, err := f.expr(x.Elem)
		if err != nil {
			return zero, err
		}
		// At most 64 repetitions, matching the interpreter's i < 64 bound.
		return f.em.repl(fn, int(min(n, 64)), uint(w), maskFor(w)), nil
	case *verilog.Call:
		return f.call(x)
	}
	return zero, errUnplannable{fmt.Sprintf("expression %T", e)}
}

func (f *lowerer[E, S, T, A]) call(x *verilog.Call) (E, error) {
	var zero E
	if len(x.Args) == 0 {
		return zero, errUnplannable{x.Name + " without arguments"}
	}
	arg := x.Args[0]
	switch x.Name {
	case "$signed", "$unsigned":
		return f.expr(arg)
	case "$countones", "$onehot", "$onehot0", "$isunknown":
		a, err := f.expr(arg)
		if err != nil {
			return zero, err
		}
		var mask uint64
		// Two-state $isunknown is constant 0 and reads no operand bits.
		if x.Name != "$isunknown" || f.four {
			w, err := f.operandWidth(arg)
			if err != nil {
				return zero, err
			}
			mask = maskFor(w)
		}
		return f.em.reduce(x.Name, a, mask), nil
	case "$past":
		a, err := f.expr(arg)
		if err != nil {
			return zero, err
		}
		var depth E
		n := uint64(1)
		if len(x.Args) > 1 {
			if !f.constPast {
				if depth, err = f.expr(x.Args[1]); err != nil {
					return zero, err
				}
			} else {
				var ok bool
				if n, ok = f.constant(x.Args[1]); !ok {
					return zero, errUnplannable{"non-constant $past depth"}
				}
				if n == 0 || n > maxPastDepth {
					return f.em.fail(evalErrf(x.Pos, "$past depth %d out of range [1, %d]", n, uint64(maxPastDepth))), nil
				}
			}
		}
		return f.em.past(x.Pos, a, depth, n), nil
	case "$rose", "$fell", "$stable", "$changed":
		a, err := f.expr(arg)
		if err != nil {
			return zero, err
		}
		return f.em.sampled(x.Pos, x.Name, a), nil
	}
	return zero, errUnplannable{"system function " + x.Name}
}
