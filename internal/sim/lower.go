package sim

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/verilog"
)

// This file is the lowering front end shared by the four execution engines:
// the scalar plan and the lane engine, each in both value domains. Each
// engine has one machine, statement layer and expression form for both
// domains (plan.go, lanes.go), and keeps apart only the four-state kernels
// whose formulas differ (plan4.go, lanes4.go). It walks the design's AST
// and hands each engine's emitter the lowered operands, the part-select
// bounds, replication counts and $past depths, and the static widths masks
// depend on. It decides nothing about plannability: internal/compile alone
// decides what a design may hold and folds every constant, with the folder
// (compile.Fold) the front end reads the constants back through, so every
// design that compiles lowers. Emitters are called only while a plan is
// built, and the front end creates no closure a simulation cycle runs, so
// the per-cycle loop executes engine code specialised to one machine
// layout and pays no dispatch.

// errUnplannable is the panic a lowering raises on a construct
// internal/compile never lets through, which only a design whose AST was
// changed after elaboration holds. lower recovers it into an error: PlanOf
// returns nil for the design and a VecRunner's runs report the error.
type errUnplannable struct {
	pos    verilog.Pos
	reason string
}

func (e errUnplannable) Error() string {
	return fmt.Sprintf("sim: unplannable design: %s: %s", e.pos, e.reason)
}

// unplannable builds the errUnplannable for e, nil for no position.
func unplannable(e verilog.Expr, format string, args ...any) errUnplannable {
	var pos verilog.Pos
	if e != nil {
		pos = e.Span()
	}
	return errUnplannable{pos, fmt.Sprintf(format, args...)}
}

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
// compiled expression, S a compiled statement (continuous assignments
// included) and T a compiled assignment target (a store receiving the
// unmasked value). Every argument is already lowered; an emitter reports
// false only for an operator outside the AST's closed sets.
type emitter[E, S, T any] interface {
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
	// operand with static width mask mask.
	reduce(name string, x E, mask uint64) E
	// past lowers $past(x, n) for a constant depth n, already in range.
	past(pos verilog.Pos, x E, n uint64) E
	// sampled lowers $rose, $fell, $stable and $changed.
	sampled(pos verilog.Pos, name string, x E) E
	// fail is an expression that reports err when evaluated: a part-select
	// whose lsb lies at bit 64 or beyond.
	fail(err error) E

	nop() S
	block(body []S) S
	// ifStmt lowers if (cond) then else els; els is the zero S when the
	// statement has no else branch.
	ifStmt(cond E, then, els S) S
	// caseStmt lowers a case statement; deflt is the zero S without a
	// default arm.
	caseStmt(subj E, arms []caseArm[E, S], deflt S) S
	// packs reports whether the emitter's assign writes rhs into sig, the
	// whole-signal target of an assignment (nil for any other target),
	// itself (word-wide in the lane engines, fused in the scalar plan); the
	// assignment then lowers no store and receives the zero T.
	packs(rhs E, sig *compile.Signal) bool
	// assign lowers an assignment of rhs through store under mode (wAssign
	// for a continuous assignment); sig is as for packs.
	assign(rhs E, mode writeMode, sig *compile.Signal, store T) S

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

// program is the part of a lowering a machine runs every cycle: the
// continuous assignments and the comb and seq always blocks.
type program[S any] struct {
	assigns []S
	combs   []S
	seqs    []S
}

// lowered is one engine's lowering of a design.
type lowered[E, S any] struct {
	program[S]

	// sva maps every expression reachable from the design's assertions
	// (terms, disable-iff) to its compiled form, keyed by AST node
	// identity.
	sva map[verilog.Expr]E
}

// lower runs the front end over d for one emitter. err is the
// errUnplannable of a construct that does not lower, which internal/compile
// never lets through; any other panic is a bug and propagates.
func lower[E, S, T any](d *compile.Design, em emitter[E, S, T]) (l lowered[E, S], err error) {
	defer func() {
		if r := recover(); r != nil {
			u, ok := r.(errUnplannable)
			if !ok {
				panic(r)
			}
			l, err = lowered[E, S]{}, u
		}
	}()
	f := &lowerer[E, S, T]{planCompiler: planCompiler{d: d}, em: em}
	for _, as := range d.Assigns {
		l.assigns = append(l.assigns, f.assign(as.LHS, as.RHS, wAssign))
	}
	for _, al := range d.CombAlways {
		l.combs = append(l.combs, f.stmt(al.Body, false))
	}
	for _, al := range d.SeqAlways {
		l.seqs = append(l.seqs, f.stmt(al.Body, true))
	}
	l.sva = map[verilog.Expr]E{}
	sva := func(e verilog.Expr) {
		if e != nil {
			l.sva[e] = f.expr(e)
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
	return l, nil
}

// planCompiler holds the design-level analysis every lowering shares:
// constants and static widths.
type planCompiler struct {
	d *compile.Design

	// widths memoises staticWidth for operator nodes, so one lowering
	// computes each node's width once however deeply expressions nest.
	widths map[verilog.Expr]int
}

// lowerer is the front end's walk for one emitter.
type lowerer[E, S, T any] struct {
	planCompiler
	em emitter[E, S, T]
}

// constant reads back a part-select bound, replication count or $past
// depth through compile.Fold, the folder internal/compile accepted it
// with; both value domains use its value, as compile rejects a constant
// that could hold x.
func (c *planCompiler) constant(e verilog.Expr) uint64 {
	v, ok := compile.Fold(e, c.d.Params)
	if !ok {
		panic(unplannable(e, "non-constant %s", verilog.ExprString(e)))
	}
	return v
}

// bounds reads back a part-select's bounds, which internal/compile
// accepted in descending order.
func (c *planCompiler) bounds(x *verilog.Slice) (hi, lo uint64) {
	hi, lo = c.constant(x.Hi), c.constant(x.Lo)
	if lo > hi {
		panic(unplannable(x, "reversed part-select [%d:%d]", hi, lo))
	}
	return hi, lo
}

// staticWidth mirrors ExprWidth at plan-compile time, with the constants
// internal/compile folded. Both value domains mask by these two-state
// widths.
func (c *planCompiler) staticWidth(e verilog.Expr) int {
	switch e.(type) {
	case *verilog.Number, *verilog.Ident, *verilog.Index, *verilog.Slice:
		return c.nodeWidth(e) // no operand widths to revisit
	}
	if w, hit := c.widths[e]; hit {
		return w
	}
	w := c.nodeWidth(e)
	if c.widths == nil {
		c.widths = map[verilog.Expr]int{}
	}
	c.widths[e] = w
	return w
}

// nodeWidth computes e's static width from its operands' static widths.
func (c *planCompiler) nodeWidth(e verilog.Expr) int {
	switch x := e.(type) {
	case *verilog.Number:
		if x.Width > 0 {
			return x.Width
		}
		return 32
	case *verilog.Ident:
		if sig := c.d.Signals[x.Name]; sig != nil && sig.Width > 0 {
			return sig.Width
		}
		return 32
	case *verilog.Unary:
		switch x.Op {
		case verilog.UnaryLogicalNot, verilog.UnaryRedAnd, verilog.UnaryRedOr,
			verilog.UnaryRedXor, verilog.UnaryRedXnor:
			return 1
		}
		return c.staticWidth(x.X)
	case *verilog.Binary:
		switch x.Op {
		case verilog.BinLogAnd, verilog.BinLogOr, verilog.BinEq, verilog.BinNe,
			verilog.BinCaseEq, verilog.BinCaseNe, verilog.BinLt, verilog.BinLe,
			verilog.BinGt, verilog.BinGe:
			return 1
		case verilog.BinShl, verilog.BinShr, verilog.BinAShr:
			return c.staticWidth(x.X)
		}
		return max(c.staticWidth(x.X), c.staticWidth(x.Y))
	case *verilog.Ternary:
		return max(c.staticWidth(x.X), c.staticWidth(x.Y))
	case *verilog.Index:
		return 1
	case *verilog.Slice:
		hi, lo := c.bounds(x)
		return int(hi-lo) + 1
	case *verilog.Concat:
		w := 0
		for _, el := range x.Elems {
			w += c.staticWidth(el)
		}
		return w
	case *verilog.Repl:
		return int(c.constant(x.Count)) * c.staticWidth(x.Elem)
	case *verilog.Call:
		switch x.Name {
		case "$rose", "$fell", "$stable", "$changed", "$onehot", "$onehot0", "$isunknown":
			return 1
		case "$countones":
			return 32
		}
		if len(x.Args) > 0 {
			return c.staticWidth(x.Args[0])
		}
		return 32
	}
	panic(unplannable(e, "expression %T has no width", e))
}

// ---------------------------------------------------------------------------
// Statements and assignment targets
// ---------------------------------------------------------------------------

func (f *lowerer[E, S, T]) stmt(s verilog.Stmt, seq bool) S {
	switch x := s.(type) {
	case nil:
		return f.em.nop()
	case *verilog.Block:
		body := make([]S, 0, len(x.Stmts))
		for _, sub := range x.Stmts {
			body = append(body, f.stmt(sub, seq))
		}
		return f.em.block(body)
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
		cond, then := f.expr(x.Cond), f.stmt(x.Then, seq)
		var els S
		if x.Else != nil {
			els = f.stmt(x.Else, seq)
		}
		return f.em.ifStmt(cond, then, els)
	case *verilog.Case:
		subj := f.expr(x.Subject)
		arms := make([]caseArm[E, S], 0, len(x.Items))
		var deflt S
		for _, item := range x.Items {
			body := f.stmt(item.Body, seq)
			if item.Exprs == nil {
				deflt = body
				continue
			}
			labels := make([]E, 0, len(item.Exprs))
			for _, le := range item.Exprs {
				labels = append(labels, f.expr(le))
			}
			arms = append(arms, caseArm[E, S]{labels: labels, body: body})
		}
		return f.em.caseStmt(subj, arms, deflt)
	}
	panic(unplannable(nil, "statement %T", s))
}

// assign lowers an assignment's RHS and, unless the emitter packs the RHS
// into the whole signal the target names (sig, else nil), its target.
func (f *lowerer[E, S, T]) assign(lhs, rhs verilog.Expr, mode writeMode) S {
	r := f.expr(rhs)
	var sig *compile.Signal
	if id, ok := lhs.(*verilog.Ident); ok {
		sig = f.d.Signals[id.Name]
	}
	var store T
	if !f.em.packs(r, sig) {
		store = f.store(lhs, mode)
	}
	return f.em.assign(r, mode, sig, store)
}

// store lowers an assignment target. The store receives the unmasked RHS
// value and applies the mode's write discipline.
func (f *lowerer[E, S, T]) store(lhs verilog.Expr, mode writeMode) T {
	switch x := lhs.(type) {
	case *verilog.Ident:
		return f.em.store(f.targetSignal(x), mode)
	case *verilog.Index:
		sig := f.targetSignal(x.X)
		return f.em.storeIndex(sig, f.expr(x.Idx), mode, f.em.store(sig, mode))
	case *verilog.Slice:
		sig := f.targetSignal(x.X)
		hi, lo := f.bounds(x)
		sm := maskFor(int(hi-lo)+1) << lo
		return f.em.storeSlice(sig, uint(lo), sm, mode, f.em.store(sig, mode))
	case *verilog.Concat:
		total := 0
		widths := make([]int, len(x.Elems))
		for i, el := range x.Elems {
			widths[i] = f.staticWidth(el)
			total += widths[i]
		}
		parts := make([]T, len(x.Elems))
		shifts := make([]uint, len(x.Elems))
		masks := make([]uint64, len(x.Elems))
		shift := total
		for i, el := range x.Elems {
			shift -= widths[i]
			parts[i], shifts[i], masks[i] = f.store(el, mode), uint(shift), maskFor(widths[i])
		}
		return f.em.storeConcat(parts, shifts, masks)
	}
	panic(unplannable(lhs, "assignment target %T", lhs))
}

// targetSignal resolves the signal a whole, bit or part-select target
// writes.
func (f *lowerer[E, S, T]) targetSignal(x verilog.Expr) *compile.Signal {
	if id, ok := x.(*verilog.Ident); ok && f.d.Signals[id.Name] != nil {
		return f.d.Signals[id.Name]
	}
	panic(unplannable(x, "assignment to %s, which is not a signal", verilog.ExprString(x)))
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

func (f *lowerer[E, S, T]) expr(e verilog.Expr) E {
	switch x := e.(type) {
	case *verilog.Number:
		return f.em.number(x)
	case *verilog.Ident:
		if sig := f.d.Signals[x.Name]; sig != nil {
			return f.em.signal(sig)
		}
		if v, ok := f.d.Params[x.Name]; ok {
			return f.em.param(v)
		}
	case *verilog.Unary:
		if fn, ok := f.em.unary(x.Op, f.expr(x.X), maskFor(f.staticWidth(x.X))); ok {
			return fn
		}
	case *verilog.Binary:
		a, b := f.expr(x.X), f.expr(x.Y)
		var w int
		switch x.Op {
		case verilog.BinXnor:
			w = max(f.staticWidth(x.X), f.staticWidth(x.Y))
		case verilog.BinAShr:
			w = f.staticWidth(x.X)
		}
		if fn, ok := f.em.binary(x.Op, a, b, w); ok {
			return fn
		}
	case *verilog.Ternary:
		cond, a, b := f.expr(x.Cond), f.expr(x.X), f.expr(x.Y)
		return f.em.ternary(cond, a, b)
	case *verilog.Index:
		a, idx := f.expr(x.X), f.expr(x.Idx)
		return f.em.index(a, idx)
	case *verilog.Slice:
		a := f.expr(x.X)
		hi, lo := f.bounds(x)
		if lo >= 64 {
			return f.em.fail(evalErrf(x.Pos, "invalid slice [%d:%d]", hi, lo))
		}
		return f.em.slice(a, uint(lo), maskFor(int(hi-lo)+1))
	case *verilog.Concat:
		elems := make([]E, len(x.Elems))
		widths := make([]uint, len(x.Elems))
		masks := make([]uint64, len(x.Elems))
		for i, el := range x.Elems {
			w := f.staticWidth(el)
			elems[i], widths[i], masks[i] = f.expr(el), uint(w), maskFor(w)
		}
		return f.em.concat(elems, widths, masks)
	case *verilog.Repl:
		n, w := f.constant(x.Count), f.staticWidth(x.Elem)
		// At most 64 repetitions, matching the interpreter's i < 64 bound.
		return f.em.repl(f.expr(x.Elem), int(min(n, 64)), uint(w), maskFor(w))
	case *verilog.Call:
		return f.call(x)
	}
	panic(unplannable(e, "expression %T does not lower", e))
}

func (f *lowerer[E, S, T]) call(x *verilog.Call) E {
	if len(x.Args) == 0 {
		panic(unplannable(x, "%s without arguments", x.Name))
	}
	arg := x.Args[0]
	switch x.Name {
	case "$signed", "$unsigned":
		return f.expr(arg)
	case "$countones", "$onehot", "$onehot0", "$isunknown":
		return f.em.reduce(x.Name, f.expr(arg), maskFor(f.staticWidth(arg)))
	case "$past":
		a, n := f.expr(arg), uint64(1)
		if len(x.Args) > 1 {
			if n = f.constant(x.Args[1]); n == 0 || n > maxPastDepth {
				panic(unplannable(x, "$past depth %d out of range [1, %d]", n, uint64(maxPastDepth)))
			}
		}
		return f.em.past(x.Pos, a, n)
	case "$rose", "$fell", "$stable", "$changed":
		return f.em.sampled(x.Pos, x.Name, f.expr(arg))
	}
	panic(unplannable(x, "system function %s", x.Name))
}
