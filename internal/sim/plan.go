package sim

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/compile"
	"repro/internal/verilog"
)

// Plan is the compile-once execution plan for a design. Built by PlanOf the
// first time a design is simulated and cached on the design itself (so
// internal/verify's verdict cache keeps plans alive alongside verdicts), it
// lowers every continuous assignment, always block and assertion-referenced
// expression into slot-addressed evaluation closures over []uint64 state.
// The hot loop then never touches the AST and never hashes a signal name.
//
// A Plan is immutable after construction and safe for concurrent use; all
// mutable state lives in the per-run mach.
type Plan struct {
	design  *compile.Design
	nslots  int
	masks   []uint64 // per-slot width masks
	initRow []uint64

	assigns []planAssign
	combs   []stmtFn
	seqs    []stmtFn

	// seqDomain[i] is the clock-domain index of seqs[i] (aligned with
	// design.SeqAlways and design.DomainOf); nil for single-domain designs,
	// whose edges run every block unconditionally.
	seqDomain []int

	// svaExpr maps every expression reachable from the design's assertions
	// (terms, disable-iff) to its compiled form, keyed by AST node identity.
	// Trace.CompileExpr resolves through this map at the API boundary.
	svaExpr map[verilog.Expr]evalFn

	// once4/p4 hold the lazily-built four-state lowering (plan4.go). It is
	// built on the first four-state run so two-state plan construction and
	// execution pay nothing for it.
	once4 sync.Once
	p4    *plan4

	// onceL/pl and onceL4/pl4 hold the lazily-built lane-parallel lowerings
	// (lanes.go / lanes4.go), cached with the same once-per-plan discipline
	// so concurrent lane batches share one compiled artifact.
	onceL  sync.Once
	pl     *LanePlan
	onceL4 sync.Once
	pl4    *lanePlan4
}

// evalFn evaluates a compiled expression against the machine state.
// Failures are recorded via mach.fail; the returned value is then 0.
type evalFn func(m *mach) uint64

// stmtFn executes a compiled statement against the machine state.
type stmtFn func(m *mach)

// planAssign is one compiled continuous assignment.
type planAssign struct {
	rhs   evalFn
	store stmtVFn
}

// stmtVFn stores a value into a compiled assignment target.
type stmtVFn func(m *mach, v uint64)

// PlanOf returns the design's compiled execution plan, building and caching
// it on first use. It returns nil when the design uses a construct the
// planner cannot lower (dynamic slice bounds, non-constant replication
// counts); callers then fall back to the reference interpreter, which
// remains the semantic oracle.
func PlanOf(d *compile.Design) *Plan {
	v := d.CachedPlan(func() any { return buildPlan(d) })
	p, _ := v.(*Plan)
	return p
}

// mach is the mutable execution state for one simulation run or one trace
// evaluation. Overlay and nonblocking-commit sets use generation counters
// so clearing between blocks and edges is O(1).
type mach struct {
	p    *Plan
	vals []uint64 // committed state; during trace eval, aliases rows[idx]

	// Blocking-assignment overlay: reads inside a block see ovlVal[s] when
	// ovlGen[s] == gen. gen is bumped to invalidate the whole overlay.
	ovlVal  []uint64
	ovlGen  []uint32
	gen     uint32
	touched []int32 // slots written in the current comb block, write order

	// Post-edge commit set: the value each written slot takes at the edge,
	// last write in program order winning.
	nbaVal  []uint64
	nbaGen  []uint32
	ngen    uint32
	nbaList []int32

	changed bool

	// Four-state planes, allocated only for four-state runs (nil otherwise).
	// They share the generation counters above: a four-state write always
	// touches both planes under one generation bump.
	unks   []uint64
	ovlUnk []uint64
	nbaUnk []uint64

	// Trace-evaluation state for sampled-value functions: rows is the full
	// sampled history and idx the cycle under evaluation. rows4 is the
	// unknown-bit plane of a four-state trace.
	rows  [][]uint64
	rows4 [][]uint64
	idx   int

	err error
}

// setup makes a zero mach the initial execution state of one run of p.
func (m *mach) setup(p *Plan) {
	n := p.nslots
	m.p = p
	m.vals = make([]uint64, n)
	m.ovlVal = make([]uint64, n)
	m.ovlGen = make([]uint32, n)
	m.gen = 1
	m.nbaVal = make([]uint64, n)
	m.nbaGen = make([]uint32, n)
	m.ngen = 1
	copy(m.vals, p.initRow)
}

// traceMach returns a machine for evaluating compiled expressions over
// sampled trace rows: no overlay, vals aliased to the row under evaluation.
func traceMach(p *Plan, rows [][]uint64) *mach {
	n := p.nslots
	return &mach{p: p, ovlGen: make([]uint32, n), gen: 1, rows: rows}
}

func (m *mach) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

func (m *mach) read(slot int32) uint64 {
	if m.ovlGen[slot] == m.gen {
		return m.ovlVal[slot]
	}
	return m.vals[slot]
}

// writeOvl records a blocking write visible to later reads in the block.
func (m *mach) writeOvl(slot int32, v uint64) {
	if m.ovlGen[slot] != m.gen {
		m.ovlGen[slot] = m.gen
		m.touched = append(m.touched, slot)
	}
	m.ovlVal[slot] = v
}

// writeNBA records a post-edge commit; the last write in program order wins.
func (m *mach) writeNBA(slot int32, v uint64) {
	if m.nbaGen[slot] != m.ngen {
		m.nbaGen[slot] = m.ngen
		m.nbaList = append(m.nbaList, slot)
	}
	m.nbaVal[slot] = v
}

func (m *mach) setInput(name string, v uint64) error {
	sig := m.p.design.Signals[name]
	if sig == nil || sig.Kind != compile.SigInput {
		return fmt.Errorf("sim: %q is not an input", name)
	}
	m.setSlot(int32(sig.Slot), v)
	return nil
}

// setSlot drives an input slot with a fully known value.
func (m *mach) setSlot(slot int32, v uint64) {
	m.vals[slot] = v & m.p.masks[slot]
	if m.unks != nil {
		m.unks[slot] = 0
	}
}

// settle evaluates continuous assignments and combinational always blocks
// to a fixpoint, mirroring Simulator.settle over slot state.
func (m *mach) settle() error {
	p := m.p
	for iter := 0; iter < maxCombIterations; iter++ {
		m.changed = false
		m.gen++ // assigns read committed state, never a stale overlay
		for i := range p.assigns {
			a := &p.assigns[i]
			a.store(m, a.rhs(m))
		}
		for _, body := range p.combs {
			m.gen++
			m.touched = m.touched[:0]
			body(m)
			if m.err != nil {
				return m.err
			}
			for _, slot := range m.touched {
				if v := m.ovlVal[slot]; m.vals[slot] != v {
					m.vals[slot] = v
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

// edge mirrors Simulator.edge: sequential blocks run against pre-edge
// values with a per-block blocking overlay, writes commit in program order,
// then combinational logic settles. Only the domains selected by fired run
// (bit k = design.Domains[k] ticked); single-domain plans have no seqDomain
// and run every block regardless of the mask.
func (m *mach) edge(fired uint64) error {
	m.ngen++
	m.nbaList = m.nbaList[:0]
	dom := m.p.seqDomain
	for i, body := range m.p.seqs {
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
	}
	return m.settle()
}

// ---------------------------------------------------------------------------
// Plan construction
// ---------------------------------------------------------------------------

// errUnplannable aborts plan construction; the design falls back to the
// reference interpreter.
type errUnplannable struct{ reason string }

func (e errUnplannable) Error() string { return "sim: unplannable design: " + e.reason }

type planCompiler struct {
	d *compile.Design
	p *Plan
}

func buildPlan(d *compile.Design) *Plan {
	c := &planCompiler{d: d, p: &Plan{
		design:  d,
		nslots:  d.SlotCount(),
		svaExpr: map[verilog.Expr]evalFn{},
	}}
	p := c.p
	p.masks = make([]uint64, p.nslots)
	p.initRow = make([]uint64, p.nslots)
	for _, name := range d.Order {
		sig := d.Signals[name]
		p.masks[sig.Slot] = sig.Mask()
	}
	for name, init := range d.RegInit {
		if sig := d.Signals[name]; sig != nil {
			p.initRow[sig.Slot] = init & sig.Mask()
		}
	}
	if d.MultiClock() {
		p.seqDomain = d.DomainOf
	}
	ok := func() bool {
		for _, as := range d.Assigns {
			rhs, err := c.compileExpr(as.RHS)
			if err != nil {
				return false
			}
			store, err := c.compileStore(as.LHS, wAssign)
			if err != nil {
				return false
			}
			p.assigns = append(p.assigns, planAssign{rhs: rhs, store: store})
		}
		for _, al := range d.CombAlways {
			body, err := c.compileStmt(al.Body, false)
			if err != nil {
				return false
			}
			p.combs = append(p.combs, body)
		}
		for _, al := range d.SeqAlways {
			body, err := c.compileStmt(al.Body, true)
			if err != nil {
				return false
			}
			p.seqs = append(p.seqs, body)
		}
		return true
	}()
	if !ok {
		return nil
	}
	// Assertion-referenced expressions: compile failures here degrade to the
	// interpretive evaluator per-expression (Trace.CompileExpr's fallback),
	// they do not invalidate the simulation plan.
	for i := range d.Asserts {
		a := &d.Asserts[i]
		c.compileSVAExpr(a.DisableIff)
		if a.Seq != nil {
			for _, t := range a.Seq.Antecedent {
				c.compileSVAExpr(t.Expr)
			}
			for _, t := range a.Seq.Consequent {
				c.compileSVAExpr(t.Expr)
			}
		}
	}
	return p
}

func (c *planCompiler) compileSVAExpr(e verilog.Expr) {
	if e == nil {
		return
	}
	if fn, err := c.compileExpr(e); err == nil {
		c.p.svaExpr[e] = fn
	}
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

// constEval evaluates an expression that may reference parameters but no
// signals, at plan-compile time.
func (c *planCompiler) constEval(e verilog.Expr) (uint64, bool) {
	v, err := Eval(e, paramOnlyEnv{d: c.d})
	return v, err == nil
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
// plan-compile time (slice bounds and replication counts constant).
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

// ---------------------------------------------------------------------------
// Statement compilation
// ---------------------------------------------------------------------------

func (c *planCompiler) compileStmt(s verilog.Stmt, seq bool) (stmtFn, error) {
	switch x := s.(type) {
	case nil:
		return func(*mach) {}, nil
	case *verilog.Block:
		fns := make([]stmtFn, 0, len(x.Stmts))
		for _, sub := range x.Stmts {
			fn, err := c.compileStmt(sub, seq)
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
		return c.compileAssignStmt(x.LHS, x.RHS, mode)
	case *verilog.NonBlocking:
		// In combinational blocks the interpreter executes nonblocking
		// assignments with blocking semantics; mirror that.
		mode := wComb
		if seq {
			mode = wSeqNBA
		}
		return c.compileAssignStmt(x.LHS, x.RHS, mode)
	case *verilog.If:
		cond, err := c.compileExpr(x.Cond)
		if err != nil {
			return nil, err
		}
		then, err := c.compileStmt(x.Then, seq)
		if err != nil {
			return nil, err
		}
		if x.Else == nil {
			return func(m *mach) {
				if cond(m) != 0 {
					then(m)
				}
			}, nil
		}
		els, err := c.compileStmt(x.Else, seq)
		if err != nil {
			return nil, err
		}
		return func(m *mach) {
			if cond(m) != 0 {
				then(m)
			} else {
				els(m)
			}
		}, nil
	case *verilog.Case:
		subj, err := c.compileExpr(x.Subject)
		if err != nil {
			return nil, err
		}
		type caseArm struct {
			labels []evalFn
			body   stmtFn
		}
		arms := make([]caseArm, 0, len(x.Items))
		var deflt stmtFn
		for _, item := range x.Items {
			body, err := c.compileStmt(item.Body, seq)
			if err != nil {
				return nil, err
			}
			if item.Exprs == nil {
				deflt = body
				continue
			}
			labels := make([]evalFn, 0, len(item.Exprs))
			for _, le := range item.Exprs {
				lf, err := c.compileExpr(le)
				if err != nil {
					return nil, err
				}
				labels = append(labels, lf)
			}
			arms = append(arms, caseArm{labels: labels, body: body})
		}
		return func(m *mach) {
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
	return nil, errUnplannable{fmt.Sprintf("statement %T", s)}
}

func (c *planCompiler) compileAssignStmt(lhs, rhs verilog.Expr, mode writeMode) (stmtFn, error) {
	rf, err := c.compileExpr(rhs)
	if err != nil {
		return nil, err
	}
	store, err := c.compileStore(lhs, mode)
	if err != nil {
		return nil, err
	}
	return func(m *mach) { store(m, rf(m)) }, nil
}

// compileStore lowers an assignment target. The returned function receives
// the unmasked RHS value and applies the mode's write discipline.
func (c *planCompiler) compileStore(lhs verilog.Expr, mode writeMode) (stmtVFn, error) {
	switch x := lhs.(type) {
	case *verilog.Ident:
		sig := c.d.Signals[x.Name]
		if sig == nil {
			return nil, errUnplannable{"assignment to unknown signal " + x.Name}
		}
		slot := int32(sig.Slot)
		mask := sig.Mask()
		switch mode {
		case wAssign:
			return func(m *mach, v uint64) {
				v &= mask
				if m.vals[slot] != v {
					m.vals[slot] = v
					m.changed = true
				}
			}, nil
		case wComb:
			return func(m *mach, v uint64) { m.writeOvl(slot, v&mask) }, nil
		case wSeqBlocking:
			return func(m *mach, v uint64) {
				v &= mask
				m.writeOvl(slot, v)
				m.writeNBA(slot, v)
			}, nil
		default: // wSeqNBA
			return func(m *mach, v uint64) { m.writeNBA(slot, v&mask) }, nil
		}
	case *verilog.Index:
		id, ok := x.X.(*verilog.Ident)
		if !ok {
			return nil, errUnplannable{"unsupported assignment target"}
		}
		sig := c.d.Signals[id.Name]
		if sig == nil {
			return nil, errUnplannable{"assignment to unknown signal " + id.Name}
		}
		idxFn, err := c.compileExpr(x.Idx)
		if err != nil {
			return nil, err
		}
		base := c.rmwBase(int32(sig.Slot), mode)
		inner, err := c.compileStore(id, mode)
		if err != nil {
			return nil, err
		}
		return func(m *mach, v uint64) {
			idx := idxFn(m) & 63
			bit := uint64(1) << idx
			inner(m, (base(m)&^bit)|((v&1)<<idx))
		}, nil
	case *verilog.Slice:
		id, ok := x.X.(*verilog.Ident)
		if !ok {
			return nil, errUnplannable{"unsupported assignment target"}
		}
		sig := c.d.Signals[id.Name]
		if sig == nil {
			return nil, errUnplannable{"assignment to unknown signal " + id.Name}
		}
		hi, ok1 := c.constEval(x.Hi)
		lo, ok2 := c.constEval(x.Lo)
		if !ok1 || !ok2 {
			return nil, errUnplannable{"dynamic slice bounds in assignment target"}
		}
		if lo > hi {
			return nil, errUnplannable{"invalid slice target"}
		}
		base := c.rmwBase(int32(sig.Slot), mode)
		inner, err := c.compileStore(id, mode)
		if err != nil {
			return nil, err
		}
		sm := maskFor(int(hi-lo)+1) << lo
		shift := uint(lo)
		return func(m *mach, v uint64) {
			inner(m, (base(m)&^sm)|((v<<shift)&sm))
		}, nil
	case *verilog.Concat:
		total := 0
		widths := make([]int, len(x.Elems))
		for i, el := range x.Elems {
			w, ok := c.staticWidth(el)
			if !ok {
				return nil, errUnplannable{"dynamic width in concat assignment target"}
			}
			widths[i] = w
			total += w
		}
		stores := make([]stmtVFn, len(x.Elems))
		shifts := make([]uint, len(x.Elems))
		elMasks := make([]uint64, len(x.Elems))
		shift := total
		for i, el := range x.Elems {
			shift -= widths[i]
			st, err := c.compileStore(el, mode)
			if err != nil {
				return nil, err
			}
			stores[i] = st
			shifts[i] = uint(shift)
			elMasks[i] = maskFor(widths[i])
		}
		return func(m *mach, v uint64) {
			for i, st := range stores {
				st(m, (v>>shifts[i])&elMasks[i])
			}
		}, nil
	}
	return nil, errUnplannable{fmt.Sprintf("assignment target %T", lhs)}
}

// rmwBase returns the base-value read for bit/slice read-modify-write under
// the given mode, matching the interpreter's overlay threading: comb and
// seq-blocking writes read through the blocking overlay; seq-nonblocking
// writes read the latest pending post-edge value first so earlier in-edge
// writes (blocking or nonblocking) are preserved.
func (c *planCompiler) rmwBase(slot int32, mode writeMode) evalFn {
	switch mode {
	case wAssign:
		return func(m *mach) uint64 { return m.vals[slot] }
	case wSeqNBA:
		return func(m *mach) uint64 {
			if m.nbaGen[slot] == m.ngen {
				return m.nbaVal[slot]
			}
			return m.read(slot)
		}
	default: // wComb, wSeqBlocking: blocking overlay then committed state
		return func(m *mach) uint64 { return m.read(slot) }
	}
}

// ---------------------------------------------------------------------------
// Expression compilation
// ---------------------------------------------------------------------------

func (c *planCompiler) compileExpr(e verilog.Expr) (evalFn, error) {
	switch x := e.(type) {
	case *verilog.Number:
		v := x.Value
		return func(*mach) uint64 { return v }, nil
	case *verilog.Ident:
		if sig := c.d.Signals[x.Name]; sig != nil {
			slot := int32(sig.Slot)
			return func(m *mach) uint64 { return m.read(slot) }, nil
		}
		if v, ok := c.d.Params[x.Name]; ok {
			return func(*mach) uint64 { return v }, nil
		}
		return nil, errUnplannable{"unknown signal " + x.Name}
	case *verilog.Unary:
		return c.compileUnary(x)
	case *verilog.Binary:
		return c.compileBinary(x)
	case *verilog.Ternary:
		cond, err := c.compileExpr(x.Cond)
		if err != nil {
			return nil, err
		}
		xf, err := c.compileExpr(x.X)
		if err != nil {
			return nil, err
		}
		yf, err := c.compileExpr(x.Y)
		if err != nil {
			return nil, err
		}
		return func(m *mach) uint64 {
			if cond(m) != 0 {
				return xf(m)
			}
			return yf(m)
		}, nil
	case *verilog.Index:
		xf, err := c.compileExpr(x.X)
		if err != nil {
			return nil, err
		}
		idxFn, err := c.compileExpr(x.Idx)
		if err != nil {
			return nil, err
		}
		return func(m *mach) uint64 {
			// Evaluate the base before the index, matching the interpreter's
			// order so error effects are identical on both backends.
			v := xf(m)
			idx := idxFn(m)
			if idx >= 64 {
				return 0
			}
			return (v >> idx) & 1
		}, nil
	case *verilog.Slice:
		xf, err := c.compileExpr(x.X)
		if err != nil {
			return nil, err
		}
		hi, ok1 := c.constEval(x.Hi)
		lo, ok2 := c.constEval(x.Lo)
		if !ok1 || !ok2 {
			return nil, errUnplannable{"dynamic slice bounds"}
		}
		if lo > hi || lo >= 64 {
			pos := x.Pos
			hiC, loC := hi, lo
			return func(m *mach) uint64 {
				m.fail(evalErrf(pos, "invalid slice [%d:%d]", hiC, loC))
				return 0
			}, nil
		}
		shift := uint(lo)
		mask := maskFor(int(hi-lo) + 1)
		return func(m *mach) uint64 { return (xf(m) >> shift) & mask }, nil
	case *verilog.Concat:
		fns := make([]evalFn, len(x.Elems))
		widths := make([]uint, len(x.Elems))
		elMasks := make([]uint64, len(x.Elems))
		for i, el := range x.Elems {
			w, ok := c.staticWidth(el)
			if !ok {
				return nil, errUnplannable{"dynamic width in concat"}
			}
			fn, err := c.compileExpr(el)
			if err != nil {
				return nil, err
			}
			fns[i] = fn
			widths[i] = uint(w)
			elMasks[i] = maskFor(w)
		}
		return func(m *mach) uint64 {
			var out uint64
			for i, fn := range fns {
				out = (out << widths[i]) | (fn(m) & elMasks[i])
			}
			return out
		}, nil
	case *verilog.Repl:
		n, ok := c.constEval(x.Count)
		if !ok {
			return nil, errUnplannable{"dynamic replication count"}
		}
		w, ok := c.staticWidth(x.Elem)
		if !ok {
			return nil, errUnplannable{"dynamic width in replication"}
		}
		fn, err := c.compileExpr(x.Elem)
		if err != nil {
			return nil, err
		}
		mask := maskFor(w)
		uw := uint(w)
		if n > 64 {
			n = 64 // matches the interpreter's i < 64 bound
		}
		reps := int(n)
		return func(m *mach) uint64 {
			v := fn(m) & mask
			var out uint64
			for i := 0; i < reps; i++ {
				out = (out << uw) | v
			}
			return out
		}, nil
	case *verilog.Call:
		return c.compileCall(x)
	}
	return nil, errUnplannable{fmt.Sprintf("expression %T", e)}
}

func (c *planCompiler) compileUnary(x *verilog.Unary) (evalFn, error) {
	xf, err := c.compileExpr(x.X)
	if err != nil {
		return nil, err
	}
	w, ok := c.staticWidth(x.X)
	if !ok {
		return nil, errUnplannable{"dynamic operand width"}
	}
	mask := maskFor(w)
	switch x.Op {
	case verilog.UnaryLogicalNot:
		return func(m *mach) uint64 { return boolVal(xf(m)&mask == 0) }, nil
	case verilog.UnaryBitNot:
		return func(m *mach) uint64 { return ^xf(m) & mask }, nil
	case verilog.UnaryMinus:
		return func(m *mach) uint64 { return -(xf(m) & mask) & mask }, nil
	case verilog.UnaryPlus:
		return func(m *mach) uint64 { return xf(m) & mask }, nil
	case verilog.UnaryRedAnd:
		return func(m *mach) uint64 { return boolVal(xf(m)&mask == mask) }, nil
	case verilog.UnaryRedOr:
		return func(m *mach) uint64 { return boolVal(xf(m)&mask != 0) }, nil
	case verilog.UnaryRedXor:
		return func(m *mach) uint64 { return uint64(bits.OnesCount64(xf(m)&mask) & 1) }, nil
	case verilog.UnaryRedXnor:
		return func(m *mach) uint64 { return uint64(1 - bits.OnesCount64(xf(m)&mask)&1) }, nil
	}
	return nil, errUnplannable{"unary operator " + x.Op.String()}
}

func (c *planCompiler) compileBinary(x *verilog.Binary) (evalFn, error) {
	af, err := c.compileExpr(x.X)
	if err != nil {
		return nil, err
	}
	bf, err := c.compileExpr(x.Y)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case verilog.BinLogAnd:
		return func(m *mach) uint64 {
			if af(m) == 0 {
				return 0
			}
			return boolVal(bf(m) != 0)
		}, nil
	case verilog.BinLogOr:
		return func(m *mach) uint64 {
			if af(m) != 0 {
				return 1
			}
			return boolVal(bf(m) != 0)
		}, nil
	case verilog.BinAdd:
		return func(m *mach) uint64 { return af(m) + bf(m) }, nil
	case verilog.BinSub:
		return func(m *mach) uint64 { return af(m) - bf(m) }, nil
	case verilog.BinMul:
		return func(m *mach) uint64 { return af(m) * bf(m) }, nil
	case verilog.BinDiv:
		return func(m *mach) uint64 {
			// Evaluate both operands in the interpreter's order before the
			// zero check, so error effects (a failing $past in either
			// operand) are identical on both backends.
			a, b := af(m), bf(m)
			if b == 0 {
				return 0 // x in 4-state Verilog; 0 under two-state
			}
			return a / b
		}, nil
	case verilog.BinMod:
		return func(m *mach) uint64 {
			a, b := af(m), bf(m)
			if b == 0 {
				return 0
			}
			return a % b
		}, nil
	case verilog.BinAnd:
		return func(m *mach) uint64 { return af(m) & bf(m) }, nil
	case verilog.BinOr:
		return func(m *mach) uint64 { return af(m) | bf(m) }, nil
	case verilog.BinXor:
		return func(m *mach) uint64 { return af(m) ^ bf(m) }, nil
	case verilog.BinXnor:
		wx, ok1 := c.staticWidth(x.X)
		wy, ok2 := c.staticWidth(x.Y)
		if !ok1 || !ok2 {
			return nil, errUnplannable{"dynamic operand width"}
		}
		mask := maskFor(max(wx, wy))
		return func(m *mach) uint64 { return ^(af(m) ^ bf(m)) & mask }, nil
	case verilog.BinEq, verilog.BinCaseEq:
		return func(m *mach) uint64 { return boolVal(af(m) == bf(m)) }, nil
	case verilog.BinNe, verilog.BinCaseNe:
		return func(m *mach) uint64 { return boolVal(af(m) != bf(m)) }, nil
	case verilog.BinLt:
		return func(m *mach) uint64 { return boolVal(af(m) < bf(m)) }, nil
	case verilog.BinLe:
		return func(m *mach) uint64 { return boolVal(af(m) <= bf(m)) }, nil
	case verilog.BinGt:
		return func(m *mach) uint64 { return boolVal(af(m) > bf(m)) }, nil
	case verilog.BinGe:
		return func(m *mach) uint64 { return boolVal(af(m) >= bf(m)) }, nil
	case verilog.BinShl:
		return func(m *mach) uint64 {
			a, b := af(m), bf(m)
			if b >= 64 {
				return 0
			}
			return a << b
		}, nil
	case verilog.BinShr:
		return func(m *mach) uint64 {
			a, b := af(m), bf(m)
			if b >= 64 {
				return 0
			}
			return a >> b
		}, nil
	case verilog.BinAShr:
		w, ok := c.staticWidth(x.X)
		if !ok {
			return nil, errUnplannable{"dynamic operand width"}
		}
		return func(m *mach) uint64 { return ashr(af(m), bf(m), w) }, nil
	}
	return nil, errUnplannable{"binary operator " + x.Op.String()}
}

func (c *planCompiler) compileCall(x *verilog.Call) (evalFn, error) {
	if len(x.Args) == 0 {
		return nil, errUnplannable{x.Name + " without arguments"}
	}
	arg := x.Args[0]
	switch x.Name {
	case "$countones", "$onehot", "$onehot0":
		fn, err := c.compileExpr(arg)
		if err != nil {
			return nil, err
		}
		w, ok := c.staticWidth(arg)
		if !ok {
			return nil, errUnplannable{"dynamic operand width"}
		}
		mask := maskFor(w)
		switch x.Name {
		case "$countones":
			return func(m *mach) uint64 { return uint64(bits.OnesCount64(fn(m) & mask)) }, nil
		case "$onehot":
			return func(m *mach) uint64 { return boolVal(bits.OnesCount64(fn(m)&mask) == 1) }, nil
		default:
			return func(m *mach) uint64 { return boolVal(bits.OnesCount64(fn(m)&mask) <= 1) }, nil
		}
	case "$isunknown":
		fn, err := c.compileExpr(arg)
		if err != nil {
			return nil, err
		}
		// Two-state: never unknown; evaluate the argument for error effects.
		return func(m *mach) uint64 { fn(m); return 0 }, nil
	case "$signed", "$unsigned":
		return c.compileExpr(arg)
	case "$past":
		fn, err := c.compileExpr(arg)
		if err != nil {
			return nil, err
		}
		pos := x.Pos
		depthFn := evalFn(func(*mach) uint64 { return 1 })
		if len(x.Args) > 1 {
			depthFn, err = c.compileExpr(x.Args[1])
			if err != nil {
				return nil, err
			}
		}
		return func(m *mach) uint64 {
			if m.rows == nil {
				m.fail(evalErrf(pos, "$past outside sampled context"))
				return 0
			}
			nv := depthFn(m)
			if nv == 0 || nv > maxPastDepth {
				m.fail(evalErrf(pos, "$past depth %d out of range [1, %d]", nv, uint64(maxPastDepth)))
				return 0
			}
			j := m.idx - int(nv)
			if j < 0 {
				return 0 // before start of time: sampled default (0)
			}
			return m.evalAt(fn, j)
		}, nil
	case "$rose", "$fell", "$stable", "$changed":
		fn, err := c.compileExpr(arg)
		if err != nil {
			return nil, err
		}
		pos := x.Pos
		name := x.Name
		return func(m *mach) uint64 {
			if m.rows == nil {
				m.fail(evalErrf(pos, "%s outside sampled context", name))
				return 0
			}
			now := fn(m)
			var before uint64
			if m.idx > 0 {
				before = m.evalAt(fn, m.idx-1)
			}
			switch name {
			case "$rose":
				return boolVal(before&1 == 0 && now&1 == 1)
			case "$fell":
				return boolVal(before&1 == 1 && now&1 == 0)
			case "$stable":
				return boolVal(before == now)
			default:
				return boolVal(before != now)
			}
		}, nil
	}
	return nil, errUnplannable{"system function " + x.Name}
}

// evalAt evaluates a compiled expression against an earlier sampled row,
// restoring the current frame afterwards.
func (m *mach) evalAt(fn evalFn, idx int) uint64 {
	savedVals, savedIdx := m.vals, m.idx
	m.vals, m.idx = m.rows[idx], idx
	v := fn(m)
	m.vals, m.idx = savedVals, savedIdx
	return v
}
