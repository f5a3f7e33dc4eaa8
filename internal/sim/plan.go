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

	// lowered holds the continuous assignments, the comb and seq blocks and
	// the assertion-reachable expressions (sva), which Trace.CompileExpr
	// resolves through at the API boundary.
	lowered[evalFn, stmtFn, planAssign]

	// seqDomain[i] is the clock-domain index of seqs[i] (aligned with
	// design.SeqAlways and design.DomainOf); nil for single-domain designs,
	// whose edges run every block unconditionally.
	seqDomain []int

	// once4/p4 hold the lazily-built four-state lowering (plan4.go). It is
	// built on the first four-state run so two-state plan construction and
	// execution pay nothing for it.
	once4 sync.Once
	p4    *plan4

	// onceL/pl hold the lazily-built lane-parallel lowering of each value
	// domain (lanes.go), indexed by Mode and cached with the same
	// once-per-plan discipline so concurrent lane batches share one
	// compiled artifact.
	onceL [2]sync.Once
	pl    [2]*LanePlan
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

// setup makes m the initial execution state of one run of p. A mach that
// ran before is reset in place, reusing its planes, so a caller looping
// over many stimuli allocates the machine once.
func (m *mach) setup(p *Plan) {
	n := p.nslots
	m.p = p
	m.vals = zeroed(m.vals, n)
	m.ovlVal = zeroed(m.ovlVal, n)
	m.ovlGen = zeroed(m.ovlGen, n)
	m.gen = 1
	m.touched = m.touched[:0]
	m.nbaVal = zeroed(m.nbaVal, n)
	m.nbaGen = zeroed(m.nbaGen, n)
	m.ngen = 1
	m.nbaList = m.nbaList[:0]
	m.changed, m.err = false, nil
	copy(m.vals, p.initRow)
}

// zeroed returns buf resized to n zero entries, reusing its storage when
// it is large enough.
func zeroed[T uint64 | uint32](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
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

func buildPlan(d *compile.Design) *Plan {
	p := &Plan{design: d, nslots: d.SlotCount()}
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
	l, ok := lower[evalFn, stmtFn, stmtVFn, planAssign](d, &planEmitter{}, false, false)
	if !ok {
		return nil
	}
	p.lowered = l
	return p
}

// planEmitter emits the two-state plan's closures over mach.
type planEmitter struct{}

// ---------------------------------------------------------------------------
// Statements and stores
// ---------------------------------------------------------------------------

func (*planEmitter) nop() stmtFn { return func(*mach) {} }

func (*planEmitter) block(body []stmtFn) stmtFn { return planBlock(body) }

// planBlock runs a block's statements in order, stopping at the first
// error; both scalar domains share it.
func planBlock(body []stmtFn) stmtFn {
	return func(m *mach) {
		for _, fn := range body {
			fn(m)
			if m.err != nil {
				return
			}
		}
	}
}

func (*planEmitter) ifStmt(cond evalFn, then, els stmtFn) stmtFn {
	if els == nil {
		return func(m *mach) {
			if cond(m) != 0 {
				then(m)
			}
		}
	}
	return func(m *mach) {
		if cond(m) != 0 {
			then(m)
		} else {
			els(m)
		}
	}
}

func (*planEmitter) caseStmt(subj evalFn, arms []caseArm[evalFn, stmtFn], deflt stmtFn) stmtFn {
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
	}
}

func (*planEmitter) packs(evalFn, *compile.Signal) bool { return false }

func (*planEmitter) assign(rhs evalFn, _ writeMode, _ *compile.Signal, store stmtVFn) stmtFn {
	return func(m *mach) { store(m, rhs(m)) }
}

func (*planEmitter) contAssign(rhs evalFn, _ *compile.Signal, store stmtVFn) planAssign {
	return planAssign{rhs: rhs, store: store}
}

func (*planEmitter) store(sig *compile.Signal, mode writeMode) stmtVFn {
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
		}
	case wComb:
		return func(m *mach, v uint64) { m.writeOvl(slot, v&mask) }
	case wSeqBlocking:
		return func(m *mach, v uint64) {
			v &= mask
			m.writeOvl(slot, v)
			m.writeNBA(slot, v)
		}
	default: // wSeqNBA
		return func(m *mach, v uint64) { m.writeNBA(slot, v&mask) }
	}
}

func (*planEmitter) storeIndex(sig *compile.Signal, idxFn evalFn, mode writeMode, inner stmtVFn) stmtVFn {
	base := rmwBase(int32(sig.Slot), mode)
	return func(m *mach, v uint64) {
		idx := idxFn(m)
		if idx >= 64 {
			return // write past the widest signal: no effect
		}
		bit := uint64(1) << idx
		inner(m, (base(m)&^bit)|((v&1)<<idx))
	}
}

func (*planEmitter) storeSlice(sig *compile.Signal, shift uint, sm uint64, mode writeMode, inner stmtVFn) stmtVFn {
	base := rmwBase(int32(sig.Slot), mode)
	return func(m *mach, v uint64) {
		inner(m, (base(m)&^sm)|((v<<shift)&sm))
	}
}

func (*planEmitter) storeConcat(parts []stmtVFn, shifts []uint, masks []uint64) stmtVFn {
	return func(m *mach, v uint64) {
		for i, st := range parts {
			st(m, (v>>shifts[i])&masks[i])
		}
	}
}

// rmwBase returns the base-value read for bit/slice read-modify-write under
// the given mode, matching the interpreter's overlay threading: comb and
// seq-blocking writes read through the blocking overlay; seq-nonblocking
// writes read the latest pending post-edge value first so earlier in-edge
// writes (blocking or nonblocking) are preserved.
func rmwBase(slot int32, mode writeMode) evalFn {
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
// Expressions
// ---------------------------------------------------------------------------

func (e *planEmitter) number(x *verilog.Number) evalFn { return e.param(x.Value) }

func (*planEmitter) param(v uint64) evalFn { return func(*mach) uint64 { return v } }

func (*planEmitter) signal(sig *compile.Signal) evalFn {
	slot := int32(sig.Slot)
	return func(m *mach) uint64 { return m.read(slot) }
}

func (*planEmitter) fail(err error) evalFn {
	return func(m *mach) uint64 {
		m.fail(err)
		return 0
	}
}

func (*planEmitter) ternary(cond, xf, yf evalFn) evalFn {
	return func(m *mach) uint64 {
		if cond(m) != 0 {
			return xf(m)
		}
		return yf(m)
	}
}

func (*planEmitter) index(xf, idxFn evalFn) evalFn {
	return func(m *mach) uint64 {
		// Evaluate the base before the index, matching the interpreter's
		// order so error effects are identical on both backends.
		v := xf(m)
		idx := idxFn(m)
		if idx >= 64 {
			return 0
		}
		return (v >> idx) & 1
	}
}

func (*planEmitter) slice(xf evalFn, shift uint, mask uint64) evalFn {
	return func(m *mach) uint64 { return (xf(m) >> shift) & mask }
}

func (*planEmitter) concat(fns []evalFn, widths []uint, masks []uint64) evalFn {
	return func(m *mach) uint64 {
		var out uint64
		for i, fn := range fns {
			out = (out << widths[i]) | (fn(m) & masks[i])
		}
		return out
	}
}

func (*planEmitter) repl(fn evalFn, reps int, uw uint, mask uint64) evalFn {
	return func(m *mach) uint64 {
		v := fn(m) & mask
		var out uint64
		for i := 0; i < reps; i++ {
			out = (out << uw) | v
		}
		return out
	}
}

func (*planEmitter) unary(op verilog.UnaryOp, xf evalFn, mask uint64) (evalFn, bool) {
	switch op {
	case verilog.UnaryLogicalNot:
		return func(m *mach) uint64 { return boolVal(xf(m)&mask == 0) }, true
	case verilog.UnaryBitNot:
		return func(m *mach) uint64 { return ^xf(m) & mask }, true
	case verilog.UnaryMinus:
		return func(m *mach) uint64 { return -(xf(m) & mask) & mask }, true
	case verilog.UnaryPlus:
		return func(m *mach) uint64 { return xf(m) & mask }, true
	case verilog.UnaryRedAnd:
		return func(m *mach) uint64 { return boolVal(xf(m)&mask == mask) }, true
	case verilog.UnaryRedOr:
		return func(m *mach) uint64 { return boolVal(xf(m)&mask != 0) }, true
	case verilog.UnaryRedXor:
		return func(m *mach) uint64 { return uint64(bits.OnesCount64(xf(m)&mask) & 1) }, true
	case verilog.UnaryRedXnor:
		return func(m *mach) uint64 { return uint64(1 - bits.OnesCount64(xf(m)&mask)&1) }, true
	}
	return nil, false
}

func (*planEmitter) binary(op verilog.BinaryOp, af, bf evalFn, w int) (evalFn, bool) {
	switch op {
	case verilog.BinLogAnd:
		return func(m *mach) uint64 {
			if af(m) == 0 {
				return 0
			}
			return boolVal(bf(m) != 0)
		}, true
	case verilog.BinLogOr:
		return func(m *mach) uint64 {
			if af(m) != 0 {
				return 1
			}
			return boolVal(bf(m) != 0)
		}, true
	case verilog.BinAdd:
		return func(m *mach) uint64 { return af(m) + bf(m) }, true
	case verilog.BinSub:
		return func(m *mach) uint64 { return af(m) - bf(m) }, true
	case verilog.BinMul:
		return func(m *mach) uint64 { return af(m) * bf(m) }, true
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
		}, true
	case verilog.BinMod:
		return func(m *mach) uint64 {
			a, b := af(m), bf(m)
			if b == 0 {
				return 0
			}
			return a % b
		}, true
	case verilog.BinAnd:
		return func(m *mach) uint64 { return af(m) & bf(m) }, true
	case verilog.BinOr:
		return func(m *mach) uint64 { return af(m) | bf(m) }, true
	case verilog.BinXor:
		return func(m *mach) uint64 { return af(m) ^ bf(m) }, true
	case verilog.BinXnor:
		mask := maskFor(w)
		return func(m *mach) uint64 { return ^(af(m) ^ bf(m)) & mask }, true
	case verilog.BinEq, verilog.BinCaseEq:
		return func(m *mach) uint64 { return boolVal(af(m) == bf(m)) }, true
	case verilog.BinNe, verilog.BinCaseNe:
		return func(m *mach) uint64 { return boolVal(af(m) != bf(m)) }, true
	case verilog.BinLt:
		return func(m *mach) uint64 { return boolVal(af(m) < bf(m)) }, true
	case verilog.BinLe:
		return func(m *mach) uint64 { return boolVal(af(m) <= bf(m)) }, true
	case verilog.BinGt:
		return func(m *mach) uint64 { return boolVal(af(m) > bf(m)) }, true
	case verilog.BinGe:
		return func(m *mach) uint64 { return boolVal(af(m) >= bf(m)) }, true
	case verilog.BinShl:
		return func(m *mach) uint64 {
			a, b := af(m), bf(m)
			if b >= 64 {
				return 0
			}
			return a << b
		}, true
	case verilog.BinShr:
		return func(m *mach) uint64 {
			a, b := af(m), bf(m)
			if b >= 64 {
				return 0
			}
			return a >> b
		}, true
	case verilog.BinAShr:
		return func(m *mach) uint64 { return ashr(af(m), bf(m), w) }, true
	}
	return nil, false
}

func (*planEmitter) reduce(name string, fn evalFn, mask uint64) evalFn {
	switch name {
	case "$countones":
		return func(m *mach) uint64 { return uint64(bits.OnesCount64(fn(m) & mask)) }
	case "$onehot":
		return func(m *mach) uint64 { return boolVal(bits.OnesCount64(fn(m)&mask) == 1) }
	case "$onehot0":
		return func(m *mach) uint64 { return boolVal(bits.OnesCount64(fn(m)&mask) <= 1) }
	default: // $isunknown
		// Two-state: never unknown; evaluate the argument for error effects.
		return func(m *mach) uint64 { fn(m); return 0 }
	}
}

func (*planEmitter) past(pos verilog.Pos, fn, depthFn evalFn, _ uint64) evalFn {
	if depthFn == nil {
		depthFn = func(*mach) uint64 { return 1 }
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
	}
}

func (*planEmitter) sampled(pos verilog.Pos, name string, fn evalFn) evalFn {
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
	}
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
