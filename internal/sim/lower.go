package sim

import (
	"cmp"
	"fmt"

	"repro/internal/compile"
	"repro/internal/verilog"
)

// This file is the lowering front end of the execution plan, shared by
// both value domains. It walks the design's AST and hands the domain's
// emitter the lowered operands, the part-select bounds, replication counts
// and $past depths, and the static widths masks depend on. Each node's
// width comes back from lowering its operands, bottom-up, through
// internal/compile's operator rules (compile.UnaryWidth, BinaryWidth), so
// no subtree is walked twice and building a plan is linear in expression
// depth. It decides
// nothing about plannability: internal/compile alone decides what a design
// may hold and folds every constant, with the folder (compile.Fold) the
// front end reads the constants back through, so every design that
// compiles lowers. Emitters are called only while a plan is built, and the
// front end creates no closure a simulation cycle runs, so the per-cycle
// loop executes plan code specialised to one machine layout and pays no
// dispatch.

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

// emitter is a value domain's build-time interface to the front end: it
// returns the compiled expression (evalFn), statement (stmtFn, continuous
// assignments included) or assignment target (stmtVFn, a store receiving
// the unmasked value) for operands the front end has already lowered. An
// emitter reports false only for an operator outside the AST's closed
// sets.
type emitter interface {
	number(x *verilog.Number) evalFn
	param(v uint64) evalFn
	signal(sig *compile.Signal) evalFn
	// unary applies op to an operand whose static width mask is mask.
	unary(op verilog.UnaryOp, x evalFn, mask uint64) (evalFn, bool)
	// binary applies op; w is the operator's static width
	// (compile.BinaryWidth), which ~^ and >>> mask to.
	binary(op verilog.BinaryOp, a, b evalFn, w int) (evalFn, bool)
	ternary(cond, x, y evalFn) evalFn
	index(x, idx evalFn) evalFn
	slice(x evalFn, shift uint, mask uint64) evalFn
	// concat joins elems MSB first; element i is masks[i] wide and shifts
	// the accumulated value left by widths[i].
	concat(elems []evalFn, widths []uint, masks []uint64) evalFn
	repl(x evalFn, reps int, w uint, mask uint64) evalFn
	// reduce lowers $countones, $onehot, $onehot0 and $isunknown over an
	// operand with static width mask mask.
	reduce(name string, x evalFn, mask uint64) evalFn
	// past lowers $past(x, n) for a constant depth n, already in range.
	past(pos verilog.Pos, x evalFn, n uint64) evalFn
	// sampled lowers $rose, $fell, $stable and $changed.
	sampled(pos verilog.Pos, name string, x evalFn) evalFn
	// fail is an expression that reports err when evaluated: a part-select
	// whose lsb lies at bit 64 or beyond.
	fail(err error) evalFn

	nop() stmtFn
	block(body []stmtFn) stmtFn
	// ifStmt lowers if (cond) then else els; els is nil when the
	// statement has no else branch.
	ifStmt(cond evalFn, then, els stmtFn) stmtFn
	// caseStmt lowers a case statement; deflt is nil without a default
	// arm.
	caseStmt(subj evalFn, arms []caseArm, deflt stmtFn) stmtFn
	// assign lowers an assignment of rhs under mode (wAssign for a
	// continuous assignment). sig is the whole-signal target of the
	// assignment, whose masked write assign fuses, and store is then nil;
	// for any other target sig is nil and rhs goes through store.
	assign(rhs evalFn, mode writeMode, sig *compile.Signal, store stmtVFn) stmtFn

	// store writes a whole signal under mode, masking to its width.
	store(sig *compile.Signal, mode writeMode) stmtVFn
	// storeIndex writes bit idx of sig; an unknown index or one >= 64
	// writes nothing.
	storeIndex(sig *compile.Signal, idx evalFn, mode writeMode) stmtVFn
	// storeSlice writes the bits of sig under sm (the part-select mask,
	// already shifted into place) from the value shifted left by shift.
	storeSlice(sig *compile.Signal, shift uint, sm uint64, mode writeMode) stmtVFn
	// storeConcat writes part i from the value shifted right by shifts[i]
	// and masked by masks[i], in order.
	storeConcat(parts []stmtVFn, shifts []uint, masks []uint64) stmtVFn
}

// caseArm is one labelled case item.
type caseArm struct {
	labels []evalFn
	body   stmtFn
}

// program is the part of a lowering a machine runs every cycle: the
// continuous assignments and the comb and seq always blocks.
type program struct {
	assigns []stmtFn
	combs   []stmtFn
	seqs    []stmtFn
}

// lowered is a value domain's lowering of a design.
type lowered struct {
	program

	// sva maps every expression reachable from the design's assertions
	// (terms, disable-iff) to its compiled form, keyed by AST node
	// identity.
	sva map[verilog.Expr]evalFn
}

// lower runs the front end over d for one value domain's emitter. err is
// the errUnplannable of a construct that does not lower, which
// internal/compile never lets through; any other panic is a bug and
// propagates.
func lower(d *compile.Design, em emitter) (l lowered, err error) {
	defer func() {
		if r := recover(); r != nil {
			u, ok := r.(errUnplannable)
			if !ok {
				panic(r)
			}
			l, err = lowered{}, u
		}
	}()
	f := &lowerer{d: d, em: em}
	for _, as := range d.Assigns {
		l.assigns = append(l.assigns, f.assign(as.LHS, as.RHS, wAssign))
	}
	for _, al := range d.CombAlways {
		l.combs = append(l.combs, f.stmt(al.Body, false))
	}
	for _, al := range d.SeqAlways {
		l.seqs = append(l.seqs, f.stmt(al.Body, true))
	}
	l.sva = map[verilog.Expr]evalFn{}
	sva := func(e verilog.Expr) {
		if e != nil {
			l.sva[e], _ = f.expr(e)
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

// lowerer is the front end's walk of one design for one emitter.
type lowerer struct {
	d  *compile.Design
	em emitter
}

// constant reads back a part-select bound, replication count or $past
// depth through compile.Fold, the folder internal/compile accepted it
// with; both value domains use its value, as compile rejects a constant
// that could hold x.
func (f *lowerer) constant(e verilog.Expr) uint64 {
	v, ok := compile.Fold(e, f.d.Params)
	if !ok {
		panic(unplannable(e, "non-constant %s", verilog.ExprString(e)))
	}
	return v
}

// bounds reads back a part-select's bounds, which internal/compile
// accepted in descending order.
func (f *lowerer) bounds(x *verilog.Slice) (hi, lo uint64) {
	hi, lo = f.constant(x.Hi), f.constant(x.Lo)
	if lo > hi {
		panic(unplannable(x, "reversed part-select [%d:%d]", hi, lo))
	}
	return hi, lo
}

// ---------------------------------------------------------------------------
// Statements and assignment targets
// ---------------------------------------------------------------------------

func (f *lowerer) stmt(s verilog.Stmt, seq bool) stmtFn {
	switch x := s.(type) {
	case nil:
		return f.em.nop()
	case *verilog.Block:
		body := make([]stmtFn, 0, len(x.Stmts))
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
		cond, _ := f.expr(x.Cond)
		then := f.stmt(x.Then, seq)
		var els stmtFn
		if x.Else != nil {
			els = f.stmt(x.Else, seq)
		}
		return f.em.ifStmt(cond, then, els)
	case *verilog.Case:
		subj, _ := f.expr(x.Subject)
		arms := make([]caseArm, 0, len(x.Items))
		var deflt stmtFn
		for _, item := range x.Items {
			body := f.stmt(item.Body, seq)
			if item.Exprs == nil {
				deflt = body
				continue
			}
			labels := make([]evalFn, 0, len(item.Exprs))
			for _, le := range item.Exprs {
				label, _ := f.expr(le)
				labels = append(labels, label)
			}
			arms = append(arms, caseArm{labels: labels, body: body})
		}
		return f.em.caseStmt(subj, arms, deflt)
	}
	panic(unplannable(nil, "statement %T", s))
}

// assign lowers an assignment's RHS and, unless the target is a whole
// signal, whose write the emitter fuses into the assignment, its target.
func (f *lowerer) assign(lhs, rhs verilog.Expr, mode writeMode) stmtFn {
	r, _ := f.expr(rhs)
	if id, ok := lhs.(*verilog.Ident); ok {
		if sig := f.d.Signals[id.Name]; sig != nil {
			return f.em.assign(r, mode, sig, nil)
		}
	}
	store, _ := f.store(lhs, mode)
	return f.em.assign(r, mode, nil, store)
}

// store lowers an assignment target and returns its width. The store
// receives the unmasked RHS value and applies the mode's write discipline.
func (f *lowerer) store(lhs verilog.Expr, mode writeMode) (stmtVFn, int) {
	switch x := lhs.(type) {
	case *verilog.Ident:
		sig := f.targetSignal(x)
		return f.em.store(sig, mode), sig.Width
	case *verilog.Index:
		sig := f.targetSignal(x.X)
		idx, _ := f.expr(x.Idx)
		return f.em.storeIndex(sig, idx, mode), 1
	case *verilog.Slice:
		sig := f.targetSignal(x.X)
		hi, lo := f.bounds(x)
		w := int(hi-lo) + 1
		return f.em.storeSlice(sig, uint(lo), maskFor(w)<<lo, mode), w
	case *verilog.Concat:
		// LSB part first, so each part's shift is the width of the parts
		// lowered before it.
		n := len(x.Elems)
		parts, shifts, masks := make([]stmtVFn, n), make([]uint, n), make([]uint64, n)
		total := 0
		for i := n - 1; i >= 0; i-- {
			var w int
			parts[i], w = f.store(x.Elems[i], mode)
			shifts[i], masks[i] = uint(total), maskFor(w)
			total += w
		}
		return f.em.storeConcat(parts, shifts, masks), total
	}
	panic(unplannable(lhs, "assignment target %T", lhs))
}

// targetSignal resolves the signal a whole, bit or part-select target
// writes.
func (f *lowerer) targetSignal(x verilog.Expr) *compile.Signal {
	if id, ok := x.(*verilog.Ident); ok && f.d.Signals[id.Name] != nil {
		return f.d.Signals[id.Name]
	}
	panic(unplannable(x, "assignment to %s, which is not a signal", verilog.ExprString(x)))
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// expr lowers e and returns its static width: the self-determined width
// the interpreter's ExprWidth gives it, with the constants internal/compile
// folded. Both value domains mask by these two-state widths.
func (f *lowerer) expr(e verilog.Expr) (evalFn, int) {
	switch x := e.(type) {
	case *verilog.Number:
		return f.em.number(x), cmp.Or(x.Width, 32)
	case *verilog.Ident:
		if sig := f.d.Signals[x.Name]; sig != nil {
			return f.em.signal(sig), sig.Width
		}
		if v, ok := f.d.Params[x.Name]; ok {
			return f.em.param(v), 32
		}
	case *verilog.Unary:
		a, w := f.expr(x.X)
		if fn, ok := f.em.unary(x.Op, a, maskFor(w)); ok {
			return fn, compile.UnaryWidth(x.Op, w)
		}
	case *verilog.Binary:
		a, wa := f.expr(x.X)
		b, wb := f.expr(x.Y)
		w := compile.BinaryWidth(x.Op, wa, wb)
		if fn, ok := f.em.binary(x.Op, a, b, w); ok {
			return fn, w
		}
	case *verilog.Ternary:
		cond, _ := f.expr(x.Cond)
		a, wa := f.expr(x.X)
		b, wb := f.expr(x.Y)
		return f.em.ternary(cond, a, b), max(wa, wb)
	case *verilog.Index:
		a, _ := f.expr(x.X)
		idx, _ := f.expr(x.Idx)
		return f.em.index(a, idx), 1
	case *verilog.Slice:
		a, _ := f.expr(x.X)
		hi, lo := f.bounds(x)
		w := int(hi-lo) + 1
		if lo >= 64 {
			return f.em.fail(evalErrf(x.Pos, "invalid slice [%d:%d]", hi, lo)), w
		}
		return f.em.slice(a, uint(lo), maskFor(w)), w
	case *verilog.Concat:
		n := len(x.Elems)
		elems, widths, masks := make([]evalFn, n), make([]uint, n), make([]uint64, n)
		total := 0
		for i, el := range x.Elems {
			var w int
			elems[i], w = f.expr(el)
			widths[i], masks[i] = uint(w), maskFor(w)
			total += w
		}
		return f.em.concat(elems, widths, masks), total
	case *verilog.Repl:
		n := f.constant(x.Count)
		a, w := f.expr(x.Elem)
		// At most 64 repetitions, matching the interpreter's i < 64 bound.
		return f.em.repl(a, int(min(n, 64)), uint(w), maskFor(w)), int(n) * w
	case *verilog.Call:
		return f.call(x)
	}
	panic(unplannable(e, "expression %T does not lower", e))
}

// call lowers a system function call and returns its width: 1 for the
// sampled-value functions and the one-bit reductions, 32 for $countones,
// and its argument's width for $signed, $unsigned and $past.
func (f *lowerer) call(x *verilog.Call) (evalFn, int) {
	if len(x.Args) == 0 {
		panic(unplannable(x, "%s without arguments", x.Name))
	}
	a, w := f.expr(x.Args[0])
	switch x.Name {
	case "$signed", "$unsigned":
		return a, w
	case "$countones":
		return f.em.reduce(x.Name, a, maskFor(w)), 32
	case "$onehot", "$onehot0", "$isunknown":
		return f.em.reduce(x.Name, a, maskFor(w)), 1
	case "$past":
		n := uint64(1)
		if len(x.Args) > 1 {
			if n = f.constant(x.Args[1]); n == 0 || n > maxPastDepth {
				panic(unplannable(x, "$past depth %d out of range [1, %d]", n, uint64(maxPastDepth)))
			}
		}
		return f.em.past(x.Pos, a, n), w
	case "$rose", "$fell", "$stable", "$changed":
		return f.em.sampled(x.Pos, x.Name, a), 1
	}
	panic(unplannable(x, "system function %s", x.Name))
}
