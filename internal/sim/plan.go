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
// One machine (mach) and one statement and store layer serve both value
// domains: in four-state every value carries an Unk plane, in two-state the
// plane is absent (nil) and stores receive unk 0. Only the expression
// kernels and the branch tests differ per domain; the four-state ones are in
// plan4.go.
//
// A Plan is immutable after construction and safe for concurrent use; all
// mutable state lives in the per-run mach.
type Plan struct {
	design  *compile.Design
	nslots  int
	masks   []uint64 // per-slot width masks
	initRow []uint64

	// lowered holds the two-state continuous assignments, comb and seq
	// blocks and the assertion-reachable expressions (sva), which
	// Trace.CompileExpr4 resolves through at the API boundary.
	lowered[evalFn, stmtFn]

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

// evalFn evaluates a compiled two-state expression against the machine
// state. Failures are recorded via mach.fail; the returned value is then 0.
type evalFn func(m *mach) uint64

// stmtFn executes a compiled statement or continuous assignment against the
// machine state, in either value domain.
type stmtFn func(m *mach)

// stmtVFn stores a value and its Unk plane (0 in two-state) into a compiled
// assignment target.
type stmtVFn func(m *mach, v, u uint64)

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
// evaluation, in either value domain. Overlay and nonblocking-commit sets
// use generation counters so clearing between blocks and edges is O(1).
// Every Unk plane is nil in two-state machines; the machine tests that once
// per call or per slot.
type mach struct {
	p    *Plan
	prog *program[stmtFn] // the blocks of the run's value domain
	vals []uint64         // committed state; during trace eval, aliases rows[idx]
	unks []uint64         // committed Unk plane; during trace eval, rows4[idx]

	// Blocking-assignment overlay: reads inside a block see ovlVal[s] when
	// ovlGen[s] == gen. gen is bumped to invalidate the whole overlay.
	ovlVal  []uint64
	ovlUnk  []uint64
	ovlGen  []uint32
	gen     uint32
	touched []int32 // slots written in the current comb block, write order

	// Post-edge commit set: the value each written slot takes at the edge,
	// last write in program order winning.
	nbaVal  []uint64
	nbaUnk  []uint64
	nbaGen  []uint32
	ngen    uint32
	nbaList []int32

	changed bool

	// Trace-evaluation state for sampled-value functions: rows is the full
	// sampled history and idx the cycle under evaluation. rows4 is the
	// unknown-bit plane of a four-state trace.
	rows  [][]uint64
	rows4 [][]uint64
	idx   int

	err error
}

// setup makes m the initial execution state of one run of p in mode: in
// four-state every signal starts x except declared initials, and p's
// four-state lowering must exist. A mach that ran before is reset in place,
// reusing its planes, so a caller looping over many stimuli allocates the
// machine once.
func (m *mach) setup(p *Plan, mode Mode) {
	n := p.nslots
	m.p, m.prog = p, &p.program
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
	if mode == TwoState {
		m.unks, m.ovlUnk, m.nbaUnk = nil, nil, nil
		return
	}
	p4 := p.fourState()
	m.prog = &p4.program
	m.unks = zeroed(m.unks, n)
	m.ovlUnk = zeroed(m.ovlUnk, n)
	m.nbaUnk = zeroed(m.nbaUnk, n)
	copy(m.unks, p4.initUnk)
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
// sampled trace rows (rows4 nil for a two-state trace): no overlay, state
// aliased to the row under evaluation.
func traceMach(p *Plan, rows, rows4 [][]uint64) *mach {
	return &mach{p: p, ovlGen: make([]uint32, p.nslots), gen: 1, rows: rows, rows4: rows4}
}

// seek points a trace machine at sampled cycle c, clearing its error.
func (m *mach) seek(c int) {
	m.vals, m.idx, m.err = m.rows[c], c, nil
	if m.rows4 != nil {
		m.unks = m.rows4[c]
	}
}

func (m *mach) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// read reads a slot's value plane through the blocking overlay.
func (m *mach) read(slot int32) uint64 {
	if m.ovlGen[slot] == m.gen {
		return m.ovlVal[slot]
	}
	return m.vals[slot]
}

// read4 reads a slot's value and Unk planes through the blocking overlay
// (four-state machines only).
func (m *mach) read4(slot int32) V4 {
	if m.ovlGen[slot] == m.gen {
		return V4{Val: m.ovlVal[slot], Unk: m.ovlUnk[slot]}
	}
	return V4{Val: m.vals[slot], Unk: m.unks[slot]}
}

// unkAt returns plane[slot], or 0 when the plane is absent (two-state).
func unkAt(plane []uint64, slot int32) uint64 {
	if plane == nil {
		return 0
	}
	return plane[slot]
}

// writeOvl records a blocking write visible to later reads in the block.
func (m *mach) writeOvl(slot int32, v, u uint64) {
	if m.ovlGen[slot] != m.gen {
		m.ovlGen[slot] = m.gen
		m.touched = append(m.touched, slot)
	}
	m.ovlVal[slot] = v
	if m.ovlUnk != nil {
		m.ovlUnk[slot] = u
	}
}

// writeNBA records a post-edge commit; the last write in program order wins.
func (m *mach) writeNBA(slot int32, v, u uint64) {
	if m.nbaGen[slot] != m.ngen {
		m.nbaGen[slot] = m.ngen
		m.nbaList = append(m.nbaList, slot)
	}
	m.nbaVal[slot] = v
	if m.nbaUnk != nil {
		m.nbaUnk[slot] = u
	}
}

// assign is a change-detected write of committed state: a continuous
// assignment's, or a comb block's overlay commit.
func (m *mach) assign(slot int32, v, u uint64) {
	if m.vals[slot] != v {
		m.vals[slot] = v
		m.changed = true
	}
	if m.unks != nil && m.unks[slot] != u {
		m.unks[slot] = u
		m.changed = true
	}
}

// put writes v, with Unk plane u, into slot under mode's write discipline,
// masked to the slot's width by mask; x bits clear their value bits.
func (m *mach) put(slot int32, mode writeMode, mask, v, u uint64) {
	u &= mask
	v &= mask &^ u
	switch mode {
	case wAssign:
		m.assign(slot, v, u)
	case wComb:
		m.writeOvl(slot, v, u)
	case wSeqBlocking:
		m.writeOvl(slot, v, u)
		m.writeNBA(slot, v, u)
	default: // wSeqNBA
		m.writeNBA(slot, v, u)
	}
}

// rmw returns the base value of a bit/slice read-modify-write under mode,
// matching the interpreter's overlay threading: continuous assignments read
// committed state; comb and seq-blocking writes read through the blocking
// overlay; seq-nonblocking writes read the latest pending post-edge value
// first so earlier in-edge writes (blocking or nonblocking) are preserved.
func (m *mach) rmw(slot int32, mode writeMode) (v, u uint64) {
	switch {
	case mode == wSeqNBA && m.nbaGen[slot] == m.ngen:
		return m.nbaVal[slot], unkAt(m.nbaUnk, slot)
	case mode != wAssign && m.ovlGen[slot] == m.gen:
		return m.ovlVal[slot], unkAt(m.ovlUnk, slot)
	}
	return m.vals[slot], unkAt(m.unks, slot)
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
	prog := m.prog
	for iter := 0; iter < maxCombIterations; iter++ {
		m.changed = false
		m.gen++ // assigns read committed state, never a stale overlay
		for _, assign := range prog.assigns {
			assign(m)
		}
		for _, body := range prog.combs {
			m.gen++
			m.touched = m.touched[:0]
			body(m)
			if m.err != nil {
				return m.err
			}
			for _, slot := range m.touched {
				m.assign(slot, m.ovlVal[slot], unkAt(m.ovlUnk, slot))
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
	for i, body := range m.prog.seqs {
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
		if m.unks != nil {
			m.unks[slot] = m.nbaUnk[slot]
		}
	}
	return m.settle()
}

// evalAt evaluates a compiled expression of either domain against an
// earlier sampled row, restoring the current frame afterwards.
func evalAt[V uint64 | V4](m *mach, fn func(*mach) V, idx int) V {
	vals, unks, cur := m.vals, m.unks, m.idx
	m.vals, m.idx = m.rows[idx], idx
	if m.rows4 != nil {
		m.unks = m.rows4[idx]
	}
	v := fn(m)
	m.vals, m.unks, m.idx = vals, unks, cur
	return v
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
	l, ok := lower[evalFn, stmtFn, stmtVFn](d, &planEmitter{}, false, false)
	if !ok {
		return nil
	}
	p.lowered = l
	return p
}

// ---------------------------------------------------------------------------
// Statements and stores, shared by both value domains
// ---------------------------------------------------------------------------

// planCore is the statement and store layer both scalar emitters embed.
// Stores take a value and its Unk plane; two-state callers pass unk 0.
type planCore struct{}

func (planCore) nop() stmtFn { return func(*mach) {} }

// block runs a block's statements in order, stopping at the first error.
func (planCore) block(body []stmtFn) stmtFn {
	return func(m *mach) {
		for _, fn := range body {
			fn(m)
			if m.err != nil {
				return
			}
		}
	}
}

func (planCore) store(sig *compile.Signal, mode writeMode) stmtVFn {
	slot, mask := int32(sig.Slot), sig.Mask()
	return func(m *mach, v, u uint64) { m.put(slot, mode, mask, v, u) }
}

// indexStore writes bit idx of sig, where idxFn reports an unknown index
// as 64: an index >= 64 writes nothing.
func (planCore) indexStore(sig *compile.Signal, idxFn evalFn, mode writeMode) stmtVFn {
	slot, mask := int32(sig.Slot), sig.Mask()
	return func(m *mach, v, u uint64) {
		idx := idxFn(m)
		if idx >= 64 {
			return // write past the widest signal: no effect
		}
		bit := uint64(1) << idx
		cv, cu := m.rmw(slot, mode)
		m.put(slot, mode, mask, (cv&^bit)|((v&1)<<idx), (cu&^bit)|((u&1)<<idx))
	}
}

func (planCore) storeSlice(sig *compile.Signal, shift uint, sm uint64, mode writeMode, _ stmtVFn) stmtVFn {
	slot, mask := int32(sig.Slot), sig.Mask()
	return func(m *mach, v, u uint64) {
		cv, cu := m.rmw(slot, mode)
		m.put(slot, mode, mask, (cv&^sm)|((v<<shift)&sm), (cu&^sm)|((u<<shift)&sm))
	}
}

func (planCore) storeConcat(parts []stmtVFn, shifts []uint, masks []uint64) stmtVFn {
	return func(m *mach, v, u uint64) {
		for i, st := range parts {
			st(m, (v>>shifts[i])&masks[i], (u>>shifts[i])&masks[i])
		}
	}
}

// ---------------------------------------------------------------------------
// Two-state statements
// ---------------------------------------------------------------------------

// planEmitter emits the two-state plan's closures over mach.
type planEmitter struct{ planCore }

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
	return planCase(subj, arms, deflt)
}

// planCase lowers a case statement in either value domain: the first arm
// with a label equal to the subject runs, and in four-state equality is
// case equality over both planes, like the four-state interpreter.
func planCase[E ~func(*mach) V, V uint64 | V4](subj E, arms []caseArm[E, stmtFn], deflt stmtFn) stmtFn {
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

// packs reports a whole-signal target, whose masked write assign fuses.
func (*planEmitter) packs(_ evalFn, sig *compile.Signal) bool { return sig != nil }

// assign fuses a whole-signal target's masked write into the assignment
// closure, specialised per write mode, so the store costs no call.
func (*planEmitter) assign(rhs evalFn, mode writeMode, sig *compile.Signal, store stmtVFn) stmtFn {
	if sig == nil {
		return func(m *mach) { store(m, rhs(m), 0) }
	}
	slot, mask := int32(sig.Slot), sig.Mask()
	switch mode {
	case wAssign:
		return func(m *mach) { m.assign(slot, rhs(m)&mask, 0) }
	case wComb:
		return func(m *mach) { m.writeOvl(slot, rhs(m)&mask, 0) }
	case wSeqBlocking:
		return func(m *mach) {
			v := rhs(m) & mask
			m.writeOvl(slot, v, 0)
			m.writeNBA(slot, v, 0)
		}
	}
	return func(m *mach) { m.writeNBA(slot, rhs(m)&mask, 0) }
}

func (e *planEmitter) storeIndex(sig *compile.Signal, idxFn evalFn, mode writeMode, _ stmtVFn) stmtVFn {
	return e.indexStore(sig, idxFn, mode)
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
		return evalAt(m, fn, j)
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
			before = evalAt(m, fn, m.idx-1)
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
