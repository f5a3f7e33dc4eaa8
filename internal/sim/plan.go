package sim

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/compile"
	"repro/internal/verilog"
)

// Plan is the compile-once execution plan for a design. PlanOf builds it
// the first time a design is simulated and caches it on the design itself,
// so it lives as long as the design. (internal/verify's verdict cache keeps
// records, plus the Designs of Service.Compile, so only those cache entries
// keep a plan alive.) A plan lowers every continuous assignment,
// always block and assertion-referenced expression into slot-addressed
// evaluation closures over []uint64 state. The hot loop then never touches
// the AST and never hashes a signal name.
//
// One machine (mach), one statement and store layer and one expression form
// (evalFn) serve both value domains: in four-state every value carries an
// Unk plane, in two-state the plane is absent (nil) and every expression's
// Unk word is 0. planCore writes every kernel whose four-state formula,
// with nothing x, is the two-state one; only number, ternary, index,
// unary, binary and the reductions are written per domain (planEmitter
// here, plan4Emitter in plan4.go).
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
	lowered

	// seqDomain[i] is the clock-domain index of seqs[i] (aligned with
	// design.SeqAlways and design.DomainOf); nil for single-domain designs,
	// whose edges run every block unconditionally.
	seqDomain []int

	// once4 builds the four-state lowering (plan4.go) into p4, or the
	// error that lowering stopped at into err4, on the first four-state
	// run, so two-state plan construction and execution pay nothing for
	// it.
	once4 sync.Once
	p4    *plan4
	err4  error
}

// evalFn evaluates a compiled expression against the machine state, in
// either value domain: val and unk are its value and Unk words, canonical
// (val is 0 wherever unk is 1), and unk is always 0 in two-state. Failures
// are recorded via mach.fail.
type evalFn func(m *mach) (val, unk uint64)

// val evaluates fn for its value word alone.
func (fn evalFn) val(m *mach) uint64 {
	v, _ := fn(m)
	return v
}

// stmtFn executes a compiled statement or continuous assignment against the
// machine state, in either value domain.
type stmtFn func(m *mach)

// stmtVFn stores a value and its Unk plane (0 in two-state) into a compiled
// assignment target.
type stmtVFn func(m *mach, v, u uint64)

// PlanOf returns the design's compiled execution plan, building and caching
// it on first use. internal/compile alone decides what a design may hold
// and folds its constants, so every design it accepts has a plan in both
// value domains; PlanOf returns nil only for a design whose AST was
// changed after elaboration into something the planner cannot lower.
func PlanOf(d *compile.Design) *Plan {
	p, _ := planOf(d)
	return p
}

// planOf is PlanOf with the error the design's lowering stopped at.
func planOf(d *compile.Design) (*Plan, error) {
	v := d.CachedPlan(func() any {
		p, err := buildPlan(d)
		if err != nil {
			return err
		}
		return p
	})
	p, _ := v.(*Plan)
	err, _ := v.(error)
	return p, err
}

// mach is the mutable execution state for one simulation run or one trace
// evaluation, in either value domain. Overlay and nonblocking-commit sets
// use generation counters so clearing between blocks and edges is O(1).
// Every Unk plane is nil in two-state machines; the machine tests that once
// per call or per slot.
type mach struct {
	p    *Plan
	prog *program // the blocks of the run's value domain
	vals []uint64 // committed state; during trace eval, aliases rows[idx]
	unks []uint64 // committed Unk plane; during trace eval, rows4[idx]

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
	p4, _ := p.fourState()
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

// evalAt evaluates a compiled expression against an earlier sampled row,
// restoring the current frame afterwards.
func evalAt(m *mach, fn evalFn, idx int) (v, u uint64) {
	vals, unks, cur := m.vals, m.unks, m.idx
	m.vals, m.idx = m.rows[idx], idx
	if m.rows4 != nil {
		m.unks = m.rows4[idx]
	}
	v, u = fn(m)
	m.vals, m.unks, m.idx = vals, unks, cur
	return v, u
}

// lowering returns the plan's lowering of mode's value domain, building the
// four-state one on first use; nil when that could not be lowered, which
// happens only for a design whose AST was changed after elaboration.
func (p *Plan) lowering(mode Mode) *lowered {
	if mode == TwoState {
		return &p.lowered
	}
	if p4, _ := p.fourState(); p4 != nil {
		return &p4.lowered
	}
	return nil
}

// ---------------------------------------------------------------------------
// Plan construction
// ---------------------------------------------------------------------------

func buildPlan(d *compile.Design) (*Plan, error) {
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
	l, err := lower(d, planEmitters[TwoState])
	if err != nil {
		return nil, err
	}
	p.lowered = l
	return p, nil
}

// ---------------------------------------------------------------------------
// Kernels shared by both value domains
// ---------------------------------------------------------------------------

// planCore is the scalar plan's emitter in either value domain. It writes
// the statement layer, every store, and every expression kernel whose
// four-state formula, with nothing x, is the two-state one; the six whose
// formulas differ come from its domain's planKernels. Stores take a value
// and its Unk word; in two-state the word is 0.
//
// The shared kernels are planCore's own methods, and the per-domain ones
// pointer methods called through an interface. Go inlines a small method
// into the wrapper it generates for a promoted or value method, and
// compiles the closure copy that makes without inlining the closure's own
// calls, so a signal read would cost a call per evaluation.
type planCore struct {
	four bool // four-state: machines carry Unk planes
	planKernels
}

// planKernels are the scalar expression kernels written per value domain:
// planEmitter (two-state) and plan4Emitter (four-state).
type planKernels interface {
	number(x *verilog.Number) evalFn
	ternary(cond, x, y evalFn) evalFn
	index(x, idx evalFn) evalFn
	unary(op verilog.UnaryOp, x evalFn, mask uint64) (evalFn, bool)
	binary(op verilog.BinaryOp, a, b evalFn, w int) (evalFn, bool)
	reduce(name string, x evalFn, mask uint64) evalFn
}

// planEmitters holds each value domain's scalar emitter. Emitters keep no
// state, so every plan build shares them.
var planEmitters = [2]emitter{
	TwoState:  &planCore{planKernels: &planEmitter{}},
	FourState: &planCore{four: true, planKernels: &plan4Emitter{}},
}

func (*planCore) nop() stmtFn { return func(*mach) {} }

// block runs a block's statements in order, stopping at the first error.
func (*planCore) block(body []stmtFn) stmtFn {
	return func(m *mach) {
		for _, fn := range body {
			fn(m)
			if m.err != nil {
				return
			}
		}
	}
}

// ifStmt takes the then branch when the condition has a known 1 bit: an x
// condition is false (IEEE 1364 §9.4), and a canonical value word is
// nonzero exactly then.
func (*planCore) ifStmt(cond evalFn, then, els stmtFn) stmtFn {
	if els == nil {
		return func(m *mach) {
			if cond.val(m) != 0 {
				then(m)
			}
		}
	}
	return func(m *mach) {
		if cond.val(m) != 0 {
			then(m)
		} else {
			els(m)
		}
	}
}

// caseStmt runs the first arm with a label equal to the subject, where
// equality is case equality over both words, like the four-state
// interpreter.
func (*planCore) caseStmt(subj evalFn, arms []caseArm, deflt stmtFn) stmtFn {
	return func(m *mach) {
		sv, su := subj(m)
		for i := range arms {
			for _, lf := range arms[i].labels {
				if lv, lu := lf(m); lv == sv && lu == su {
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

// assign fuses a whole-signal target's masked write into the assignment
// closure, specialised per write mode, so the store costs no call.
func (*planCore) assign(rhs evalFn, mode writeMode, sig *compile.Signal, store stmtVFn) stmtFn {
	if sig == nil {
		return func(m *mach) {
			v, u := rhs(m)
			store(m, v, u)
		}
	}
	slot, mask := int32(sig.Slot), sig.Mask()
	switch mode {
	case wAssign:
		return func(m *mach) {
			v, u := rhs(m)
			m.assign(slot, v&mask&^u, u&mask)
		}
	case wComb:
		return func(m *mach) {
			v, u := rhs(m)
			m.writeOvl(slot, v&mask&^u, u&mask)
		}
	case wSeqBlocking:
		return func(m *mach) {
			v, u := rhs(m)
			v, u = v&mask&^u, u&mask
			m.writeOvl(slot, v, u)
			m.writeNBA(slot, v, u)
		}
	}
	return func(m *mach) {
		v, u := rhs(m)
		m.writeNBA(slot, v&mask&^u, u&mask)
	}
}

func (*planCore) store(sig *compile.Signal, mode writeMode) stmtVFn {
	slot, mask := int32(sig.Slot), sig.Mask()
	return func(m *mach, v, u uint64) { m.put(slot, mode, mask, v, u) }
}

// storeIndex writes bit idx of sig; an unknown index, or one past the
// widest signal, writes nothing.
func (*planCore) storeIndex(sig *compile.Signal, idxFn evalFn, mode writeMode) stmtVFn {
	slot, mask := int32(sig.Slot), sig.Mask()
	return func(m *mach, v, u uint64) {
		idx, iu := idxFn(m)
		if iu != 0 || idx >= 64 {
			return
		}
		bit := uint64(1) << idx
		cv, cu := m.rmw(slot, mode)
		m.put(slot, mode, mask, (cv&^bit)|((v&1)<<idx), (cu&^bit)|((u&1)<<idx))
	}
}

func (*planCore) storeSlice(sig *compile.Signal, shift uint, sm uint64, mode writeMode) stmtVFn {
	slot, mask := int32(sig.Slot), sig.Mask()
	return func(m *mach, v, u uint64) {
		cv, cu := m.rmw(slot, mode)
		m.put(slot, mode, mask, (cv&^sm)|((v<<shift)&sm), (cu&^sm)|((u<<shift)&sm))
	}
}

func (*planCore) storeConcat(parts []stmtVFn, shifts []uint, masks []uint64) stmtVFn {
	return func(m *mach, v, u uint64) {
		for i, st := range parts {
			st(m, (v>>shifts[i])&masks[i], (u>>shifts[i])&masks[i])
		}
	}
}

func (*planCore) param(v uint64) evalFn { return konst(known(v)) }

// konst compiles a constant, already canonical. One with no x bits — every
// two-state constant — is a one-word closure.
func konst(v V4) evalFn {
	val, unk := v.Val, v.Unk
	if unk == 0 {
		return func(*mach) (uint64, uint64) { return val, 0 }
	}
	return func(*mach) (uint64, uint64) { return val, unk }
}

// signal reads a slot through the blocking overlay, choosing the reader
// for the domain's planes once, at build time: the two-state reader never
// touches an Unk plane.
func (c *planCore) signal(sig *compile.Signal) evalFn {
	slot := int32(sig.Slot)
	if !c.four {
		return func(m *mach) (uint64, uint64) { return m.read(slot), 0 }
	}
	return func(m *mach) (uint64, uint64) {
		if m.ovlGen[slot] == m.gen {
			return m.ovlVal[slot], m.ovlUnk[slot]
		}
		return m.vals[slot], m.unks[slot]
	}
}

// fail reports err when evaluated.
func (*planCore) fail(err error) evalFn {
	return func(m *mach) (uint64, uint64) {
		m.fail(err)
		return 0, 0
	}
}

func (*planCore) slice(xf evalFn, shift uint, mask uint64) evalFn {
	return func(m *mach) (uint64, uint64) {
		v, u := xf(m)
		return (v >> shift) & mask, (u >> shift) & mask
	}
}

func (*planCore) concat(fns []evalFn, widths []uint, masks []uint64) evalFn {
	return func(m *mach) (uint64, uint64) {
		var ov, ou uint64
		for i, fn := range fns {
			v, u := fn(m)
			ov = (ov << widths[i]) | (v & masks[i])
			ou = (ou << widths[i]) | (u & masks[i])
		}
		return ov, ou
	}
}

func (*planCore) repl(fn evalFn, reps int, uw uint, mask uint64) evalFn {
	return func(m *mach) (uint64, uint64) {
		v, u := fn(m)
		v, u = v&mask, u&mask
		var ov, ou uint64
		for i := 0; i < reps; i++ {
			ov = (ov << uw) | v
			ou = (ou << uw) | u
		}
		return ov, ou
	}
}

// past lowers $past(x, n): the operand evaluated against the sampled row n
// cycles back, 0 before the start of time.
func (*planCore) past(pos verilog.Pos, fn evalFn, n uint64) evalFn {
	d := int(n)
	return func(m *mach) (uint64, uint64) {
		if m.rows == nil {
			return m.unsampled(pos, "$past")
		}
		j := m.idx - d
		if j < 0 {
			return 0, 0 // before start of time: sampled default (0)
		}
		return evalAt(m, fn, j)
	}
}

// sampled lowers $rose, $fell, $stable and $changed, which compare the
// current sample with the previous cycle's (a zero sample at cycle 0):
// $rose and $fell the least-significant bit, $stable and $changed the
// whole value. An x in a compared bit makes the result x (v4Sampled). The
// comparison is picked here, at build time.
func (*planCore) sampled(pos verilog.Pos, name string, fn evalFn) evalFn {
	if name == "$rose" || name == "$fell" {
		from := boolVal(name == "$fell") // the LSB before the edge
		return func(m *mach) (uint64, uint64) {
			if m.rows == nil {
				return m.unsampled(pos, name)
			}
			nv, nu := fn(m)
			var bv, bu uint64
			if m.idx > 0 {
				bv, bu = evalAt(m, fn, m.idx-1)
			}
			if (bu|nu)&1 != 0 {
				return 0, 1
			}
			return boolVal(bv&1 == from && nv&1 != from), 0
		}
	}
	stable := name == "$stable"
	return func(m *mach) (uint64, uint64) {
		if m.rows == nil {
			return m.unsampled(pos, name)
		}
		nv, nu := fn(m)
		var bv, bu uint64
		if m.idx > 0 {
			bv, bu = evalAt(m, fn, m.idx-1)
		}
		if bu|nu != 0 {
			return 0, 1
		}
		return boolVal((bv == nv) == stable), 0
	}
}

// unsampled fails m for a sampled-value function evaluated outside a
// sampled context, such as design logic, and returns the zero value.
func (m *mach) unsampled(pos verilog.Pos, name string) (uint64, uint64) {
	m.fail(evalErrf(pos, "%s outside sampled context", name))
	return 0, 0
}

// ---------------------------------------------------------------------------
// Two-state kernels
// ---------------------------------------------------------------------------

// planEmitter holds the two-state kernels whose formulas differ from the
// four-state ones; every Unk word they return is 0.
type planEmitter struct{}

func (*planEmitter) number(x *verilog.Number) evalFn { return konst(known(x.Value)) }

func (*planEmitter) ternary(cond, xf, yf evalFn) evalFn {
	return func(m *mach) (uint64, uint64) {
		if cond.val(m) != 0 {
			return xf(m)
		}
		return yf(m)
	}
}

func (*planEmitter) index(xf, idxFn evalFn) evalFn {
	return func(m *mach) (uint64, uint64) {
		// Evaluate the base before the index, matching the interpreter's
		// order so error effects are identical on both backends.
		v := xf.val(m)
		idx := idxFn.val(m)
		if idx >= 64 {
			return 0, 0
		}
		return (v >> idx) & 1, 0
	}
}

func (*planEmitter) unary(op verilog.UnaryOp, xf evalFn, mask uint64) (evalFn, bool) {
	switch op {
	case verilog.UnaryLogicalNot:
		return func(m *mach) (uint64, uint64) { return boolVal(xf.val(m)&mask == 0), 0 }, true
	case verilog.UnaryBitNot:
		return func(m *mach) (uint64, uint64) { return ^xf.val(m) & mask, 0 }, true
	case verilog.UnaryMinus:
		return func(m *mach) (uint64, uint64) { return -(xf.val(m) & mask) & mask, 0 }, true
	case verilog.UnaryPlus:
		return func(m *mach) (uint64, uint64) { return xf.val(m) & mask, 0 }, true
	case verilog.UnaryRedAnd:
		return func(m *mach) (uint64, uint64) { return boolVal(xf.val(m)&mask == mask), 0 }, true
	case verilog.UnaryRedOr:
		return func(m *mach) (uint64, uint64) { return boolVal(xf.val(m)&mask != 0), 0 }, true
	case verilog.UnaryRedXor:
		return func(m *mach) (uint64, uint64) { return uint64(bits.OnesCount64(xf.val(m)&mask) & 1), 0 }, true
	case verilog.UnaryRedXnor:
		return func(m *mach) (uint64, uint64) { return uint64(1 - bits.OnesCount64(xf.val(m)&mask)&1), 0 }, true
	}
	return nil, false
}

func (*planEmitter) binary(op verilog.BinaryOp, af, bf evalFn, w int) (evalFn, bool) {
	switch op {
	case verilog.BinLogAnd:
		return func(m *mach) (uint64, uint64) {
			if af.val(m) == 0 {
				return 0, 0
			}
			return boolVal(bf.val(m) != 0), 0
		}, true
	case verilog.BinLogOr:
		return func(m *mach) (uint64, uint64) {
			if af.val(m) != 0 {
				return 1, 0
			}
			return boolVal(bf.val(m) != 0), 0
		}, true
	case verilog.BinAdd:
		return func(m *mach) (uint64, uint64) { return af.val(m) + bf.val(m), 0 }, true
	case verilog.BinSub:
		return func(m *mach) (uint64, uint64) { return af.val(m) - bf.val(m), 0 }, true
	case verilog.BinMul:
		return func(m *mach) (uint64, uint64) { return af.val(m) * bf.val(m), 0 }, true
	case verilog.BinDiv:
		return func(m *mach) (uint64, uint64) {
			// Evaluate both operands in the interpreter's order before the
			// zero check, so error effects (a failing $past in either
			// operand) are identical on both backends.
			a, b := af.val(m), bf.val(m)
			if b == 0 {
				return 0, 0 // x in 4-state Verilog; 0 under two-state
			}
			return a / b, 0
		}, true
	case verilog.BinMod:
		return func(m *mach) (uint64, uint64) {
			a, b := af.val(m), bf.val(m)
			if b == 0 {
				return 0, 0
			}
			return a % b, 0
		}, true
	case verilog.BinAnd:
		return func(m *mach) (uint64, uint64) { return af.val(m) & bf.val(m), 0 }, true
	case verilog.BinOr:
		return func(m *mach) (uint64, uint64) { return af.val(m) | bf.val(m), 0 }, true
	case verilog.BinXor:
		return func(m *mach) (uint64, uint64) { return af.val(m) ^ bf.val(m), 0 }, true
	case verilog.BinXnor:
		mask := maskFor(w)
		return func(m *mach) (uint64, uint64) { return ^(af.val(m) ^ bf.val(m)) & mask, 0 }, true
	case verilog.BinEq, verilog.BinCaseEq:
		return func(m *mach) (uint64, uint64) { return boolVal(af.val(m) == bf.val(m)), 0 }, true
	case verilog.BinNe, verilog.BinCaseNe:
		return func(m *mach) (uint64, uint64) { return boolVal(af.val(m) != bf.val(m)), 0 }, true
	case verilog.BinLt:
		return func(m *mach) (uint64, uint64) { return boolVal(af.val(m) < bf.val(m)), 0 }, true
	case verilog.BinLe:
		return func(m *mach) (uint64, uint64) { return boolVal(af.val(m) <= bf.val(m)), 0 }, true
	case verilog.BinGt:
		return func(m *mach) (uint64, uint64) { return boolVal(af.val(m) > bf.val(m)), 0 }, true
	case verilog.BinGe:
		return func(m *mach) (uint64, uint64) { return boolVal(af.val(m) >= bf.val(m)), 0 }, true
	case verilog.BinShl:
		return func(m *mach) (uint64, uint64) {
			a, b := af.val(m), bf.val(m)
			if b >= 64 {
				return 0, 0
			}
			return a << b, 0
		}, true
	case verilog.BinShr:
		return func(m *mach) (uint64, uint64) {
			a, b := af.val(m), bf.val(m)
			if b >= 64 {
				return 0, 0
			}
			return a >> b, 0
		}, true
	case verilog.BinAShr:
		return func(m *mach) (uint64, uint64) { return ashr(af.val(m), bf.val(m), w), 0 }, true
	}
	return nil, false
}

func (*planEmitter) reduce(name string, fn evalFn, mask uint64) evalFn {
	switch name {
	case "$countones":
		return func(m *mach) (uint64, uint64) { return uint64(bits.OnesCount64(fn.val(m) & mask)), 0 }
	case "$onehot":
		return func(m *mach) (uint64, uint64) { return boolVal(bits.OnesCount64(fn.val(m)&mask) == 1), 0 }
	case "$onehot0":
		return func(m *mach) (uint64, uint64) { return boolVal(bits.OnesCount64(fn.val(m)&mask) <= 1), 0 }
	default: // $isunknown
		// Two-state: never unknown; evaluate the argument for error effects.
		return func(m *mach) (uint64, uint64) { fn(m); return 0, 0 }
	}
}
