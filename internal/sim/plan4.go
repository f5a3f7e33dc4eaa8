package sim

import (
	"fmt"
	"math/bits"

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

// stmtFn4 executes a compiled statement against four-state machine state.
type stmtFn4 func(m *mach)

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

	assigns4 []planAssign4
	combs4   []stmtFn4
	seqs4    []stmtFn4

	// svaExpr4 mirrors Plan.svaExpr for four-state trace evaluation.
	svaExpr4 map[verilog.Expr]evalFn4
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
	c := &planCompiler4{c: planCompiler{d: d, p: p}}
	p4 := &plan4{svaExpr4: map[verilog.Expr]evalFn4{}}
	p4.initUnk = make([]uint64, p.nslots)
	for _, name := range d.Order {
		sig := d.Signals[name]
		p4.initUnk[sig.Slot] = sig.Mask()
	}
	for name := range d.RegInit {
		if sig := d.Signals[name]; sig != nil {
			p4.initUnk[sig.Slot] = d.RegInitX[name] & sig.Mask()
		}
	}
	ok := func() bool {
		for _, as := range d.Assigns {
			rhs, err := c.compileExpr4(as.RHS)
			if err != nil {
				return false
			}
			store, err := c.compileStore4(as.LHS, wAssign)
			if err != nil {
				return false
			}
			p4.assigns4 = append(p4.assigns4, planAssign4{rhs: rhs, store: store})
		}
		for _, al := range d.CombAlways {
			body, err := c.compileStmt4(al.Body, false)
			if err != nil {
				return false
			}
			p4.combs4 = append(p4.combs4, body)
		}
		for _, al := range d.SeqAlways {
			body, err := c.compileStmt4(al.Body, true)
			if err != nil {
				return false
			}
			p4.seqs4 = append(p4.seqs4, body)
		}
		return true
	}()
	if !ok {
		return nil
	}
	for i := range d.Asserts {
		a := &d.Asserts[i]
		c.compileSVAExpr4(p4, a.DisableIff)
		if a.Seq != nil {
			for _, t := range a.Seq.Antecedent {
				c.compileSVAExpr4(p4, t.Expr)
			}
			for _, t := range a.Seq.Consequent {
				c.compileSVAExpr4(p4, t.Expr)
			}
		}
	}
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
		for i := range p4.assigns4 {
			a := &p4.assigns4[i]
			a.store(m, a.rhs(m))
		}
		for _, body := range p4.combs4 {
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
// blocks whose domain bit is set in fired (seqs4 is index-aligned with
// seqDomain).
func (m *mach) edge4(p4 *plan4, fired uint64) error {
	m.ngen++
	m.nbaList = m.nbaList[:0]
	dom := m.p.seqDomain
	for i, body := range p4.seqs4 {
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
// Statement compilation
// ---------------------------------------------------------------------------

// planCompiler4 lowers AST nodes into four-state closures, sharing the
// two-state compiler's constant folding and static width analysis.
type planCompiler4 struct {
	c planCompiler
}

// constEval4 evaluates a compile-time constant (parameters only, no
// signals) in the four-state domain and requires every bit to be known.
// An x/z-bearing bound or count (e.g. in[2'b1x:0]) makes the construct
// unplannable, so the whole design falls back to the reference
// interpreter's four-state rules (unknown bounds read all-x, unknown-bound
// stores are no-ops) instead of silently constant-folding the x bits to 0.
func (c *planCompiler4) constEval4(e verilog.Expr) (uint64, bool) {
	v, err := Eval4(e, paramOnlyEnv{d: c.c.d})
	if err != nil || v.Unk != 0 {
		return 0, false
	}
	return v.Val, true
}

func (c *planCompiler4) compileSVAExpr4(p4 *plan4, e verilog.Expr) {
	if e == nil {
		return
	}
	if fn, err := c.compileExpr4(e); err == nil {
		p4.svaExpr4[e] = fn
	}
}

func (c *planCompiler4) compileStmt4(s verilog.Stmt, seq bool) (stmtFn4, error) {
	switch x := s.(type) {
	case nil:
		return func(*mach) {}, nil
	case *verilog.Block:
		fns := make([]stmtFn4, 0, len(x.Stmts))
		for _, sub := range x.Stmts {
			fn, err := c.compileStmt4(sub, seq)
			if err != nil {
				return nil, err
			}
			fns = append(fns, fn)
		}
		return func(m *mach) {
			for _, fn := range fns {
				fn(m)
				if m.err != nil {
					return
				}
			}
		}, nil
	case *verilog.Blocking:
		mode := wComb
		if seq {
			mode = wSeqBlocking
		}
		return c.compileAssignStmt4(x.LHS, x.RHS, mode)
	case *verilog.NonBlocking:
		// In combinational blocks the interpreter executes nonblocking
		// assignments with blocking semantics; mirror that.
		mode := wComb
		if seq {
			mode = wSeqNBA
		}
		return c.compileAssignStmt4(x.LHS, x.RHS, mode)
	case *verilog.If:
		cond, err := c.compileExpr4(x.Cond)
		if err != nil {
			return nil, err
		}
		then, err := c.compileStmt4(x.Then, seq)
		if err != nil {
			return nil, err
		}
		if x.Else == nil {
			return func(m *mach) {
				if cond(m).IsTrue() {
					then(m)
				}
			}, nil
		}
		els, err := c.compileStmt4(x.Else, seq)
		if err != nil {
			return nil, err
		}
		return func(m *mach) {
			// An x condition is treated as false (IEEE 1364 §9.4).
			if cond(m).IsTrue() {
				then(m)
			} else {
				els(m)
			}
		}, nil
	case *verilog.Case:
		subj, err := c.compileExpr4(x.Subject)
		if err != nil {
			return nil, err
		}
		type caseArm4 struct {
			labels []evalFn4
			body   stmtFn4
		}
		arms := make([]caseArm4, 0, len(x.Items))
		var deflt stmtFn4
		for _, item := range x.Items {
			body, err := c.compileStmt4(item.Body, seq)
			if err != nil {
				return nil, err
			}
			if item.Exprs == nil {
				deflt = body
				continue
			}
			labels := make([]evalFn4, 0, len(item.Exprs))
			for _, le := range item.Exprs {
				lf, err := c.compileExpr4(le)
				if err != nil {
					return nil, err
				}
				labels = append(labels, lf)
			}
			arms = append(arms, caseArm4{labels: labels, body: body})
		}
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
		}, nil
	}
	return nil, errUnplannable{"statement (four-state)"}
}

func (c *planCompiler4) compileAssignStmt4(lhs, rhs verilog.Expr, mode writeMode) (stmtFn4, error) {
	rf, err := c.compileExpr4(rhs)
	if err != nil {
		return nil, err
	}
	store, err := c.compileStore4(lhs, mode)
	if err != nil {
		return nil, err
	}
	return func(m *mach) { store(m, rf(m)) }, nil
}

func (c *planCompiler4) compileStore4(lhs verilog.Expr, mode writeMode) (stmtVFn4, error) {
	switch x := lhs.(type) {
	case *verilog.Ident:
		sig := c.c.d.Signals[x.Name]
		if sig == nil {
			return nil, errUnplannable{"assignment to unknown signal " + x.Name}
		}
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
			}, nil
		case wComb:
			return func(m *mach, v V4) { m.writeOvl4(slot, v.maskV(mask).norm()) }, nil
		case wSeqBlocking:
			return func(m *mach, v V4) {
				v = v.maskV(mask).norm()
				m.writeOvl4(slot, v)
				m.writeNBA4(slot, v)
			}, nil
		default: // wSeqNBA
			return func(m *mach, v V4) { m.writeNBA4(slot, v.maskV(mask).norm()) }, nil
		}
	case *verilog.Index:
		id, ok := x.X.(*verilog.Ident)
		if !ok {
			return nil, errUnplannable{"unsupported assignment target"}
		}
		sig := c.c.d.Signals[id.Name]
		if sig == nil {
			return nil, errUnplannable{"assignment to unknown signal " + id.Name}
		}
		idxFn, err := c.compileExpr4(x.Idx)
		if err != nil {
			return nil, err
		}
		base := c.rmwBase4(int32(sig.Slot), mode)
		inner, err := c.compileStore4(id, mode)
		if err != nil {
			return nil, err
		}
		return func(m *mach, v V4) {
			idx := idxFn(m)
			if idx.Unk != 0 {
				return // write at an unknown index: no effect
			}
			sh := idx.Val & 63
			bit := uint64(1) << sh
			cur := base(m)
			inner(m, V4{
				Val: (cur.Val &^ bit) | ((v.Val & 1) << sh),
				Unk: (cur.Unk &^ bit) | ((v.Unk & 1) << sh),
			})
		}, nil
	case *verilog.Slice:
		id, ok := x.X.(*verilog.Ident)
		if !ok {
			return nil, errUnplannable{"unsupported assignment target"}
		}
		sig := c.c.d.Signals[id.Name]
		if sig == nil {
			return nil, errUnplannable{"assignment to unknown signal " + id.Name}
		}
		hi, ok1 := c.constEval4(x.Hi)
		lo, ok2 := c.constEval4(x.Lo)
		if !ok1 || !ok2 {
			return nil, errUnplannable{"dynamic slice bounds in assignment target"}
		}
		if lo > hi {
			return nil, errUnplannable{"invalid slice target"}
		}
		base := c.rmwBase4(int32(sig.Slot), mode)
		inner, err := c.compileStore4(id, mode)
		if err != nil {
			return nil, err
		}
		sm := maskFor(int(hi-lo)+1) << lo
		shift := uint(lo)
		return func(m *mach, v V4) {
			cur := base(m)
			inner(m, V4{
				Val: (cur.Val &^ sm) | ((v.Val << shift) & sm),
				Unk: (cur.Unk &^ sm) | ((v.Unk << shift) & sm),
			})
		}, nil
	case *verilog.Concat:
		total := 0
		widths := make([]int, len(x.Elems))
		for i, el := range x.Elems {
			w, ok := c.c.staticWidth(el)
			if !ok {
				return nil, errUnplannable{"dynamic width in concat assignment target"}
			}
			widths[i] = w
			total += w
		}
		stores := make([]stmtVFn4, len(x.Elems))
		shifts := make([]uint, len(x.Elems))
		elMasks := make([]uint64, len(x.Elems))
		shift := total
		for i, el := range x.Elems {
			shift -= widths[i]
			st, err := c.compileStore4(el, mode)
			if err != nil {
				return nil, err
			}
			stores[i] = st
			shifts[i] = uint(shift)
			elMasks[i] = maskFor(widths[i])
		}
		return func(m *mach, v V4) {
			for i, st := range stores {
				st(m, V4{Val: (v.Val >> shifts[i]) & elMasks[i], Unk: (v.Unk >> shifts[i]) & elMasks[i]})
			}
		}, nil
	}
	return nil, errUnplannable{"assignment target (four-state)"}
}

// rmwBase4 mirrors rmwBase over both planes.
func (c *planCompiler4) rmwBase4(slot int32, mode writeMode) evalFn4 {
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
// Expression compilation
// ---------------------------------------------------------------------------

func (c *planCompiler4) compileExpr4(e verilog.Expr) (evalFn4, error) {
	switch x := e.(type) {
	case *verilog.Number:
		v := V4{Val: x.Value, Unk: x.Unknown()}.norm()
		return func(*mach) V4 { return v }, nil
	case *verilog.Ident:
		if sig := c.c.d.Signals[x.Name]; sig != nil {
			slot := int32(sig.Slot)
			return func(m *mach) V4 { return m.read4(slot) }, nil
		}
		if v, ok := c.c.d.Params[x.Name]; ok {
			kv := known(v)
			return func(*mach) V4 { return kv }, nil
		}
		return nil, errUnplannable{"unknown signal " + x.Name}
	case *verilog.Unary:
		return c.compileUnary4(x)
	case *verilog.Binary:
		return c.compileBinary4(x)
	case *verilog.Ternary:
		cond, err := c.compileExpr4(x.Cond)
		if err != nil {
			return nil, err
		}
		xf, err := c.compileExpr4(x.X)
		if err != nil {
			return nil, err
		}
		yf, err := c.compileExpr4(x.Y)
		if err != nil {
			return nil, err
		}
		return func(m *mach) V4 {
			cv := cond(m)
			if cv.IsTrue() {
				return xf(m)
			}
			if cv.IsFalse() {
				return yf(m)
			}
			return v4Merge(xf(m), yf(m))
		}, nil
	case *verilog.Index:
		xf, err := c.compileExpr4(x.X)
		if err != nil {
			return nil, err
		}
		idxFn, err := c.compileExpr4(x.Idx)
		if err != nil {
			return nil, err
		}
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
		}, nil
	case *verilog.Slice:
		xf, err := c.compileExpr4(x.X)
		if err != nil {
			return nil, err
		}
		hi, ok1 := c.constEval4(x.Hi)
		lo, ok2 := c.constEval4(x.Lo)
		if !ok1 || !ok2 {
			return nil, errUnplannable{"dynamic slice bounds"}
		}
		if lo > hi || lo >= 64 {
			pos := x.Pos
			hiC, loC := hi, lo
			return func(m *mach) V4 {
				m.fail(evalErrf(pos, "invalid slice [%d:%d]", hiC, loC))
				return V4{}
			}, nil
		}
		shift := uint(lo)
		mask := maskFor(int(hi-lo) + 1)
		return func(m *mach) V4 {
			v := xf(m)
			return V4{Val: (v.Val >> shift) & mask, Unk: (v.Unk >> shift) & mask}
		}, nil
	case *verilog.Concat:
		fns := make([]evalFn4, len(x.Elems))
		widths := make([]uint, len(x.Elems))
		elMasks := make([]uint64, len(x.Elems))
		for i, el := range x.Elems {
			w, ok := c.c.staticWidth(el)
			if !ok {
				return nil, errUnplannable{"dynamic width in concat"}
			}
			fn, err := c.compileExpr4(el)
			if err != nil {
				return nil, err
			}
			fns[i] = fn
			widths[i] = uint(w)
			elMasks[i] = maskFor(w)
		}
		return func(m *mach) V4 {
			var out V4
			for i, fn := range fns {
				v := fn(m)
				out.Val = (out.Val << widths[i]) | (v.Val & elMasks[i])
				out.Unk = (out.Unk << widths[i]) | (v.Unk & elMasks[i])
			}
			return out
		}, nil
	case *verilog.Repl:
		n, ok := c.constEval4(x.Count)
		if !ok {
			return nil, errUnplannable{"dynamic replication count"}
		}
		w, ok := c.c.staticWidth(x.Elem)
		if !ok {
			return nil, errUnplannable{"dynamic width in replication"}
		}
		fn, err := c.compileExpr4(x.Elem)
		if err != nil {
			return nil, err
		}
		mask := maskFor(w)
		uw := uint(w)
		if n > 64 {
			n = 64 // matches the interpreter's i < 64 bound
		}
		reps := int(n)
		return func(m *mach) V4 {
			v := fn(m).maskV(mask)
			var out V4
			for i := 0; i < reps; i++ {
				out.Val = (out.Val << uw) | v.Val
				out.Unk = (out.Unk << uw) | v.Unk
			}
			return out
		}, nil
	case *verilog.Call:
		return c.compileCall4(x)
	}
	return nil, errUnplannable{"expression (four-state)"}
}

func (c *planCompiler4) compileUnary4(x *verilog.Unary) (evalFn4, error) {
	xf, err := c.compileExpr4(x.X)
	if err != nil {
		return nil, err
	}
	w, ok := c.c.staticWidth(x.X)
	if !ok {
		return nil, errUnplannable{"dynamic operand width"}
	}
	mask := maskFor(w)
	switch x.Op {
	case verilog.UnaryLogicalNot:
		return func(m *mach) V4 { return v4LogNot(xf(m).maskV(mask)) }, nil
	case verilog.UnaryBitNot:
		return func(m *mach) V4 { return v4Not(xf(m), mask) }, nil
	case verilog.UnaryMinus:
		return func(m *mach) V4 {
			v := xf(m).maskV(mask)
			if v.Unk != 0 {
				return V4{Unk: mask}
			}
			return known(-v.Val & mask)
		}, nil
	case verilog.UnaryPlus:
		return func(m *mach) V4 { return xf(m).maskV(mask) }, nil
	case verilog.UnaryRedAnd:
		return func(m *mach) V4 { return v4RedAnd(xf(m), mask) }, nil
	case verilog.UnaryRedOr:
		return func(m *mach) V4 { return v4RedOr(xf(m), mask) }, nil
	case verilog.UnaryRedXor:
		return func(m *mach) V4 { return v4RedXor(xf(m), mask) }, nil
	case verilog.UnaryRedXnor:
		return func(m *mach) V4 { return v4Not(v4RedXor(xf(m), mask), 1) }, nil
	}
	return nil, errUnplannable{"unary operator " + x.Op.String()}
}

func (c *planCompiler4) compileBinary4(x *verilog.Binary) (evalFn4, error) {
	af, err := c.compileExpr4(x.X)
	if err != nil {
		return nil, err
	}
	bf, err := c.compileExpr4(x.Y)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case verilog.BinLogAnd:
		return func(m *mach) V4 {
			a := af(m)
			if a.IsFalse() {
				return V4{}
			}
			return v4LogAnd(a, bf(m))
		}, nil
	case verilog.BinLogOr:
		return func(m *mach) V4 {
			a := af(m)
			if a.IsTrue() {
				return V4{Val: 1}
			}
			return v4LogOr(a, bf(m))
		}, nil
	case verilog.BinAdd:
		return func(m *mach) V4 {
			return v4Arith(af(m), bf(m), func(p, q uint64) uint64 { return p + q })
		}, nil
	case verilog.BinSub:
		return func(m *mach) V4 {
			return v4Arith(af(m), bf(m), func(p, q uint64) uint64 { return p - q })
		}, nil
	case verilog.BinMul:
		return func(m *mach) V4 {
			return v4Arith(af(m), bf(m), func(p, q uint64) uint64 { return p * q })
		}, nil
	case verilog.BinDiv:
		return func(m *mach) V4 {
			// Operands evaluate in the interpreter's order before the zero
			// check, so error effects agree between the engines.
			a, b := af(m), bf(m)
			return v4Div(a, b)
		}, nil
	case verilog.BinMod:
		return func(m *mach) V4 {
			a, b := af(m), bf(m)
			return v4Mod(a, b)
		}, nil
	case verilog.BinAnd:
		return func(m *mach) V4 { return v4And(af(m), bf(m)) }, nil
	case verilog.BinOr:
		return func(m *mach) V4 { return v4Or(af(m), bf(m)) }, nil
	case verilog.BinXor:
		return func(m *mach) V4 { return v4Xor(af(m), bf(m)) }, nil
	case verilog.BinXnor:
		wx, ok1 := c.c.staticWidth(x.X)
		wy, ok2 := c.c.staticWidth(x.Y)
		if !ok1 || !ok2 {
			return nil, errUnplannable{"dynamic operand width"}
		}
		mask := maskFor(max(wx, wy))
		return func(m *mach) V4 { return v4Not(v4Xor(af(m), bf(m)), mask) }, nil
	case verilog.BinEq:
		return func(m *mach) V4 { return v4Eq(af(m), bf(m)) }, nil
	case verilog.BinNe:
		return func(m *mach) V4 { return v4LogNot(v4Eq(af(m), bf(m))) }, nil
	case verilog.BinCaseEq:
		return func(m *mach) V4 { return v4CaseEq(af(m), bf(m)) }, nil
	case verilog.BinCaseNe:
		return func(m *mach) V4 { return v4LogNot(v4CaseEq(af(m), bf(m))) }, nil
	case verilog.BinLt:
		return func(m *mach) V4 {
			return v4RelArith(af(m), bf(m), func(p, q uint64) bool { return p < q })
		}, nil
	case verilog.BinLe:
		return func(m *mach) V4 {
			return v4RelArith(af(m), bf(m), func(p, q uint64) bool { return p <= q })
		}, nil
	case verilog.BinGt:
		return func(m *mach) V4 {
			return v4RelArith(af(m), bf(m), func(p, q uint64) bool { return p > q })
		}, nil
	case verilog.BinGe:
		return func(m *mach) V4 {
			return v4RelArith(af(m), bf(m), func(p, q uint64) bool { return p >= q })
		}, nil
	case verilog.BinShl:
		return func(m *mach) V4 { return v4Shl(af(m), bf(m)) }, nil
	case verilog.BinShr:
		return func(m *mach) V4 { return v4Shr(af(m), bf(m)) }, nil
	case verilog.BinAShr:
		w, ok := c.c.staticWidth(x.X)
		if !ok {
			return nil, errUnplannable{"dynamic operand width"}
		}
		return func(m *mach) V4 { return v4AShr(af(m), bf(m), w) }, nil
	}
	return nil, errUnplannable{"binary operator " + x.Op.String()}
}

func (c *planCompiler4) compileCall4(x *verilog.Call) (evalFn4, error) {
	if len(x.Args) == 0 {
		return nil, errUnplannable{x.Name + " without arguments"}
	}
	arg := x.Args[0]
	switch x.Name {
	case "$countones", "$onehot", "$onehot0", "$isunknown":
		fn, err := c.compileExpr4(arg)
		if err != nil {
			return nil, err
		}
		w, ok := c.c.staticWidth(arg)
		if !ok {
			return nil, errUnplannable{"dynamic operand width"}
		}
		mask := maskFor(w)
		switch x.Name {
		case "$countones":
			return func(m *mach) V4 {
				v := fn(m).maskV(mask)
				if v.Unk != 0 {
					return allX
				}
				return known(uint64(bits.OnesCount64(v.Val)))
			}, nil
		case "$onehot":
			return func(m *mach) V4 {
				v := fn(m).maskV(mask)
				if v.Unk != 0 {
					return xBool
				}
				return boolV4(bits.OnesCount64(v.Val) == 1)
			}, nil
		case "$onehot0":
			return func(m *mach) V4 {
				v := fn(m).maskV(mask)
				if v.Unk != 0 {
					return xBool
				}
				return boolV4(bits.OnesCount64(v.Val) <= 1)
			}, nil
		default: // $isunknown
			return func(m *mach) V4 { return boolV4(fn(m).Unk&mask != 0) }, nil
		}
	case "$signed", "$unsigned":
		return c.compileExpr4(arg)
	case "$past":
		fn, err := c.compileExpr4(arg)
		if err != nil {
			return nil, err
		}
		pos := x.Pos
		depthFn := evalFn4(func(*mach) V4 { return V4{Val: 1} })
		if len(x.Args) > 1 {
			depthFn, err = c.compileExpr4(x.Args[1])
			if err != nil {
				return nil, err
			}
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
		}, nil
	case "$rose", "$fell", "$stable", "$changed":
		fn, err := c.compileExpr4(arg)
		if err != nil {
			return nil, err
		}
		pos := x.Pos
		name := x.Name
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
		}, nil
	}
	return nil, errUnplannable{"system function " + x.Name}
}
