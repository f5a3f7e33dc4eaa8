package sim

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/compile"
	"repro/internal/verilog"
)

// This file is the lane-parallel ("bit-sliced") lowering of the execution
// plan: structure-of-arrays state that packs up to 64 independent stimuli —
// lanes — into one machine word per single-bit signal, so one pass over the
// compiled closures advances all lanes at once. Multi-bit signals and any
// operator without a word-wide kernel fall back to a per-lane scalar loop
// inside the same closure graph, computed with the exact formulas plan.go
// uses, so correctness never depends on a packed kernel existing.
//
// One machine, one statement layer and one expression form serve both
// value domains. In the four-state domain every word and vector carries an
// Unk plane; in the two-state domain the Unk word is 0 and the Unk vector
// absent (nil), and every store, control and shared expression formula is
// the four-state one with all lanes known. Only the expression kernels
// whose formulas really differ (x literals, div/mod by zero, the x-merge
// of ?:, an unknown index) are written per domain: laneEmitter here,
// lane4Emitter in lanes4.go.
//
// Control flow is handled by predicated execution: both branches of an if
// (and every case arm) run under a per-lane write mask, so lanes that took
// different paths each see exactly the writes their own path performs. This
// evaluates a superset of the expressions the scalar engine would evaluate
// per lane; any runtime error therefore aborts the whole batch and callers
// re-run the lanes one by one on the scalar plan, which reproduces scalar
// behaviour exactly.
//
// Unused high lanes replicate the last real lane's stimulus, so every one
// of the 64 word bits always simulates a valid run and word-wide kernels
// never see garbage; callers mask results to LaneStimulus.N at the API
// boundary (LaneTrace.ActiveMask).

// laneBitFn evaluates a packed expression: bit l of val and unk is lane l's
// single-bit value and Unk bit, canonical (val is 0 wherever unk is 1);
// unk is always 0 in two-state. Only expressions whose scalar value is
// provably a single bit compile to this form.
type laneBitFn func(m *lmach) (val, unk uint64)

// laneVecFn evaluates an expression per lane with the scalar engine's exact
// formulas into a 64-entry register (one raw 64-bit value per lane) and, in
// the four-state domain, its Unk plane; uu is nil in two-state.
type laneVecFn func(m *lmach) (vv, uu []uint64)

// laneBoolFn evaluates an assertion expression to truth masks: tw selects
// lanes whose value is a known nonzero, xw lanes that sampled x (always 0
// in two-state).
type laneBoolFn func(m *lmach) (tw, xw uint64)

// laneStmtFn executes a compiled statement under the machine's write mask.
type laneStmtFn func(m *lmach)

// laneStoreFn stores per-lane values (register form, uu nil in two-state)
// into a target.
type laneStoreFn func(m *lmach, vv, uu []uint64)

// lexpr is one compiled lane expression in either value domain: exactly
// one of bit/vec is set.
type lexpr struct {
	bit laneBitFn
	vec laneVecFn
}

// LanePlan is the compile-once lane-parallel execution plan of one value
// domain, built lazily from the scalar plan and cached on it (PlanLanes), so
// concurrent lane batches share a single artifact per design and domain.
// Immutable after construction; all mutable state lives in the per-run
// lmach.
type LanePlan struct {
	p     *Plan
	four  bool   // four-state: machines carry Unk planes
	isBit []bool // per-slot: packed word (width 1) vs per-lane vector

	nregs  int
	consts []laneConst

	// lowered mirrors Plan.lowered: sva maps assertion-reachable
	// expressions to their truth masks.
	lowered[laneBoolFn, laneStmtFn]
}

// laneConst prefills one register (and its Unk plane) with a broadcast
// constant.
type laneConst struct {
	reg  int
	v, u uint64
}

// PlanLanes returns the design's two-state lane-parallel execution plan,
// building and caching it on first use. Nil when the design has no scalar
// plan or uses a construct the lane compiler cannot lower; callers fall
// back to per-lane scalar runs.
func PlanLanes(d *compile.Design) *LanePlan {
	p := PlanOf(d)
	if p == nil {
		return nil
	}
	return p.lanes(TwoState)
}

// lanes returns the plan's lane lowering in the given value domain,
// building it on first use.
func (p *Plan) lanes(mode Mode) *LanePlan {
	p.onceL[mode].Do(func() { p.pl[mode] = buildLanePlan(p, mode == FourState) })
	return p.pl[mode]
}

// LanesOK reports whether the design can run lane-parallel in the given
// value domain — the precondition for packing stimuli into lanes, which
// only the benchmark's traced rows and the differential tests do.
// Multi-clock designs are excluded: the lane engine itself handles them
// (per-lane fired masks), but the lane-batched assertion evaluation has
// no per-domain tick schedule, so their stimuli run on the scalar engine.
func LanesOK(d *compile.Design, mode Mode) bool {
	p := PlanOf(d)
	return !d.MultiClock() && p != nil && p.lanes(mode) != nil
}

// buildLanePlan lowers the design with the domain's emitter and compiles
// each assertion expression to its truth masks; nil when the design does
// not lower.
func buildLanePlan(p *Plan, four bool) *LanePlan {
	if four && p.fourState() == nil {
		return nil
	}
	lp := &LanePlan{p: p, four: four, isBit: bitSlots(p.design)}
	core := laneCore{lp}
	var em emitter[lexpr, laneStmtFn, laneStoreFn] = &laneEmitter{core}
	if four {
		em = &lane4Emitter{core}
	}
	l, err := lower(p.design, em)
	if err != nil {
		return nil
	}
	lp.program = l.program
	lp.sva = make(map[verilog.Expr]laneBoolFn, len(l.sva))
	for e, le := range l.sva {
		lp.sva[e] = core.bool3(le)
	}
	return lp
}

// bitSlots marks the single-bit slots, which lane machines hold packed.
func bitSlots(d *compile.Design) []bool {
	isBit := make([]bool, d.SlotCount())
	for _, name := range d.Order {
		sig := d.Signals[name]
		isBit[sig.Slot] = sig.Width == 1
	}
	return isBit
}

// newRegs allocates a machine's registers, with their Unk planes in the
// four-state domain, and prefills the broadcast constants.
func (lp *LanePlan) newRegs() (regs, uregs [][]uint64) {
	regs = make([][]uint64, lp.nregs)
	for i := range regs {
		regs[i] = make([]uint64, 64)
	}
	if lp.four {
		uregs = make([][]uint64, lp.nregs)
		for i := range uregs {
			uregs[i] = make([]uint64, 64)
		}
	}
	for _, kc := range lp.consts {
		broadcast(regs[kc.reg], kc.v)
		if uregs != nil {
			broadcast(uregs[kc.reg], kc.u)
		}
	}
	return regs, uregs
}

// ---------------------------------------------------------------------------
// Lane machine state
// ---------------------------------------------------------------------------

// lmach is the mutable lane-batch execution state: one packed word per
// single-bit slot, one 64-entry vector per multi-bit slot, plus the same
// generation-counted blocking overlay and post-edge commit sets as mach —
// extended with per-lane write masks so predicated branches only touch
// their own lanes. Every Unk plane (u*) is nil in two-state machines.
type lmach struct {
	lp *LanePlan

	laneRow // committed state

	ovlBits  []uint64
	ovlUBits []uint64
	ovlWide  [][]uint64
	ovlUWide [][]uint64
	ovlGen   []uint32
	gen      uint32
	touched  []int32

	nbaBits  []uint64
	nbaUBits []uint64
	nbaWide  [][]uint64
	nbaUWide [][]uint64
	nbaGen   []uint32
	nbaWm    []uint64 // lanes written in the current commit set, per slot
	ngen     uint32
	nbaList  []int32

	wm      uint64 // current predication write mask
	changed bool

	regs  [][]uint64 // per-node registers
	uregs [][]uint64

	// Trace-evaluation state for the SVA sampled-value functions.
	rows []laneRow
	idx  int

	err error
}

// laneRow is one frame of lane state: packed words for single-bit slots,
// per-lane vectors for the rest (nil entries for single-bit slots), and
// their Unk planes in four-state (nil in two-state).
type laneRow struct {
	bits  []uint64
	ubits []uint64
	wide  [][]uint64
	uwide [][]uint64
}

func newLmach(lp *LanePlan) *lmach {
	p := lp.p
	n := p.nslots
	m := &lmach{
		lp:      lp,
		laneRow: laneRow{bits: make([]uint64, n), wide: make([][]uint64, n)},
		ovlBits: make([]uint64, n),
		ovlWide: make([][]uint64, n),
		ovlGen:  make([]uint32, n),
		gen:     1,
		nbaBits: make([]uint64, n),
		nbaWide: make([][]uint64, n),
		nbaGen:  make([]uint32, n),
		nbaWm:   make([]uint64, n),
		ngen:    1,
		wm:      ^uint64(0),
	}
	var initUnk []uint64
	if lp.four {
		initUnk = p.fourState().initUnk
		m.ubits, m.uwide = make([]uint64, n), make([][]uint64, n)
		m.ovlUBits, m.ovlUWide = make([]uint64, n), make([][]uint64, n)
		m.nbaUBits, m.nbaUWide = make([]uint64, n), make([][]uint64, n)
	}
	for s := 0; s < n; s++ {
		if lp.isBit[s] {
			m.bits[s] = -(p.initRow[s] & 1)
			if lp.four {
				m.ubits[s] = -(initUnk[s] & 1)
			}
			continue
		}
		m.wide[s] = make([]uint64, 64)
		m.ovlWide[s] = make([]uint64, 64)
		m.nbaWide[s] = make([]uint64, 64)
		broadcast(m.wide[s], p.initRow[s])
		if lp.four {
			m.uwide[s] = make([]uint64, 64)
			m.ovlUWide[s] = make([]uint64, 64)
			m.nbaUWide[s] = make([]uint64, 64)
			broadcast(m.uwide[s], initUnk[s])
		}
	}
	m.regs, m.uregs = lp.newRegs()
	return m
}

// traceLmach returns a machine for evaluating compiled lane expressions
// over sampled lane-trace rows: no overlay, state aliased per cycle.
func traceLmach(lp *LanePlan, rows []laneRow) *lmach {
	m := &lmach{
		lp:     lp,
		ovlGen: make([]uint32, lp.p.nslots),
		gen:    1,
		wm:     ^uint64(0),
		rows:   rows,
	}
	m.regs, m.uregs = lp.newRegs()
	return m
}

func broadcast(dst []uint64, v uint64) {
	for l := range dst {
		dst[l] = v
	}
}

func (m *lmach) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// reg returns register r and its Unk plane (nil in two-state).
func (m *lmach) reg(r int) (vv, uu []uint64) {
	if m.uregs == nil {
		return m.regs[r], nil
	}
	return m.regs[r], m.uregs[r]
}

// readBit reads a packed slot's value plane through the blocking overlay.
// Overlay entries are initialised from the pre-write value at first touch,
// so an overlay word is complete for every lane, written or not.
func (m *lmach) readBit(slot int32) uint64 {
	if m.ovlGen[slot] == m.gen {
		return m.ovlBits[slot]
	}
	return m.bits[slot]
}

// readBit4 reads both planes of a packed slot through the blocking overlay.
func (m *lmach) readBit4(slot int32) (uint64, uint64) {
	if m.ovlGen[slot] == m.gen {
		return m.ovlBits[slot], m.ovlUBits[slot]
	}
	return m.bits[slot], m.ubits[slot]
}

// readVec reads a multi-bit slot's value plane through the blocking
// overlay.
func (m *lmach) readVec(slot int32) []uint64 {
	if m.ovlGen[slot] == m.gen {
		return m.ovlWide[slot]
	}
	return m.wide[slot]
}

// readVec4 reads both planes of a multi-bit slot through the blocking
// overlay.
func (m *lmach) readVec4(slot int32) ([]uint64, []uint64) {
	if m.ovlGen[slot] == m.gen {
		return m.ovlWide[slot], m.ovlUWide[slot]
	}
	return m.wide[slot], m.uwide[slot]
}

// assignBit is a continuous assignment's change-detected packed write
// under the predication mask; u is ignored in two-state.
func (m *lmach) assignBit(slot int32, v, u uint64) {
	if nv := (m.bits[slot] &^ m.wm) | (v & m.wm); nv != m.bits[slot] {
		m.bits[slot] = nv
		m.changed = true
	}
	if m.ubits == nil {
		return
	}
	if nu := (m.ubits[slot] &^ m.wm) | (u & m.wm); nu != m.ubits[slot] {
		m.ubits[slot] = nu
		m.changed = true
	}
}

// assignVec is a continuous assignment's change-detected per-lane write
// under the predication mask, masking the unmasked value to the slot's
// width (x bits clear their value bits, as in V4.norm).
func (m *lmach) assignVec(slot int32, vv, uu []uint64, mask uint64) {
	dv := m.wide[slot]
	if uu == nil {
		for l := 0; l < 64; l++ {
			if nv := vv[l] & mask; m.wm>>uint(l)&1 == 1 && dv[l] != nv {
				dv[l] = nv
				m.changed = true
			}
		}
		return
	}
	du := m.uwide[slot]
	for l := 0; l < 64; l++ {
		nu := uu[l] & mask
		if nv := vv[l] & mask &^ nu; m.wm>>uint(l)&1 == 1 && (dv[l] != nv || du[l] != nu) {
			dv[l], du[l] = nv, nu
			m.changed = true
		}
	}
}

// writeOvlBit merges a packed blocking write under the predication mask.
func (m *lmach) writeOvlBit(slot int32, v, u uint64) {
	if m.ovlGen[slot] != m.gen {
		m.ovlGen[slot] = m.gen
		m.ovlBits[slot] = m.bits[slot]
		if m.ubits != nil {
			m.ovlUBits[slot] = m.ubits[slot]
		}
		m.touched = append(m.touched, slot)
	}
	m.ovlBits[slot] = (m.ovlBits[slot] &^ m.wm) | (v & m.wm)
	if m.ubits != nil {
		m.ovlUBits[slot] = (m.ovlUBits[slot] &^ m.wm) | (u & m.wm)
	}
}

// writeOvlVec merges a per-lane blocking write under the predication mask.
// The value is already masked to the slot width per lane.
func (m *lmach) writeOvlVec(slot int32, vv, uu []uint64) {
	dv, du := m.ovlWide[slot], planeOf(m.ovlUWide, slot)
	if m.ovlGen[slot] != m.gen {
		m.ovlGen[slot] = m.gen
		copy(dv, m.wide[slot])
		copy(du, planeOf(m.uwide, slot))
		m.touched = append(m.touched, slot)
	}
	mergeLanes(dv, du, vv, uu, m.wm)
}

// writeNBABit merges a packed post-edge commit; last write per lane wins.
func (m *lmach) writeNBABit(slot int32, v, u uint64) {
	if m.nbaGen[slot] != m.ngen {
		m.nbaGen[slot] = m.ngen
		m.nbaBits[slot] = m.bits[slot]
		if m.ubits != nil {
			m.nbaUBits[slot] = m.ubits[slot]
		}
		m.nbaWm[slot] = 0
		m.nbaList = append(m.nbaList, slot)
	}
	m.nbaBits[slot] = (m.nbaBits[slot] &^ m.wm) | (v & m.wm)
	if m.ubits != nil {
		m.nbaUBits[slot] = (m.nbaUBits[slot] &^ m.wm) | (u & m.wm)
	}
	m.nbaWm[slot] |= m.wm
}

// writeNBAVec merges a per-lane post-edge commit.
func (m *lmach) writeNBAVec(slot int32, vv, uu []uint64) {
	dv, du := m.nbaWide[slot], planeOf(m.nbaUWide, slot)
	if m.nbaGen[slot] != m.ngen {
		m.nbaGen[slot] = m.ngen
		copy(dv, m.wide[slot])
		copy(du, planeOf(m.uwide, slot))
		m.nbaWm[slot] = 0
		m.nbaList = append(m.nbaList, slot)
	}
	mergeLanes(dv, du, vv, uu, m.wm)
	m.nbaWm[slot] |= m.wm
}

// planeOf returns a slot's vector in an Unk plane; nil when the plane is
// absent (two-state).
func planeOf(plane [][]uint64, slot int32) []uint64 {
	if plane == nil {
		return nil
	}
	return plane[slot]
}

// putBit writes packed words into a single-bit slot with mode's write
// discipline.
func (m *lmach) putBit(slot int32, mode writeMode, v, u uint64) {
	switch mode {
	case wAssign:
		m.assignBit(slot, v, u)
	case wComb:
		m.writeOvlBit(slot, v, u)
	case wSeqBlocking:
		m.writeOvlBit(slot, v, u)
		m.writeNBABit(slot, v, u)
	default: // wSeqNBA
		m.writeNBABit(slot, v, u)
	}
}

// rmwBit returns a packed slot's base words for a bit/slice
// read-modify-write under mode, mirroring the scalar rmwBase's overlay
// threading: committed state for continuous assigns, the blocking overlay
// otherwise, and for nonblocking writes the lanes already committed this
// edge on top.
func (m *lmach) rmwBit(slot int32, mode writeMode) (v, u uint64) {
	switch {
	case mode == wAssign:
		v = m.bits[slot]
		if m.ubits != nil {
			u = m.ubits[slot]
		}
		return v, u
	case m.ubits == nil:
		v = m.readBit(slot)
	default:
		v, u = m.readBit4(slot)
	}
	if mode == wSeqNBA && m.nbaGen[slot] == m.ngen {
		wm := m.nbaWm[slot]
		v = (m.nbaBits[slot] & wm) | (v &^ wm)
		if m.ubits != nil {
			u = (m.nbaUBits[slot] & wm) | (u &^ wm)
		}
	}
	return v, u
}

// rmwVec is rmwBit for a multi-bit slot; r is the register a nonblocking
// base is merged into.
func (m *lmach) rmwVec(slot int32, mode writeMode, r int) (vv, uu []uint64) {
	switch {
	case mode == wAssign:
		return m.wide[slot], planeOf(m.uwide, slot)
	case m.uwide == nil:
		vv = m.readVec(slot)
	default:
		vv, uu = m.readVec4(slot)
	}
	if mode != wSeqNBA || m.nbaGen[slot] != m.ngen {
		return vv, uu
	}
	ov, ou := m.reg(r)
	blendLanes(ov, m.nbaWide[slot], vv, m.nbaWm[slot])
	if ou != nil {
		blendLanes(ou, m.nbaUWide[slot], uu, m.nbaWm[slot])
	}
	return ov, ou
}

// spread expands packed words into register r, one {0,1} value per lane.
func (m *lmach) spread(r int, v, u uint64) ([]uint64, []uint64) {
	ov, ou := m.reg(r)
	if ou == nil {
		for l := 0; l < 64; l++ {
			ov[l] = (v >> uint(l)) & 1
		}
		return ov, nil
	}
	for l := 0; l < 64; l++ {
		ov[l], ou[l] = (v>>uint(l))&1, (u>>uint(l))&1
	}
	return ov, ou
}

// settleLanes mirrors mach.settle over lane state: assigns and comb blocks
// to a fixpoint across all lanes. Per-lane convergence is unaffected by the
// shared iteration count — a converged lane re-computes identical values.
func (m *lmach) settleLanes() error {
	lp := m.lp
	for iter := 0; iter < maxCombIterations; iter++ {
		m.changed = false
		m.gen++ // assigns read committed state, never a stale overlay
		for _, fn := range lp.assigns {
			fn(m)
			if m.err != nil {
				return m.err
			}
		}
		for _, body := range lp.combs {
			m.gen++
			m.touched = m.touched[:0]
			body(m)
			if m.err != nil {
				return m.err
			}
			for _, slot := range m.touched {
				if lp.isBit[slot] {
					m.changed = commitWord(m.bits, m.ovlBits, slot) || m.changed
					if lp.four {
						m.changed = commitWord(m.ubits, m.ovlUBits, slot) || m.changed
					}
					continue
				}
				m.changed = commitLanes(m.wide[slot], m.ovlWide[slot]) || m.changed
				if lp.four {
					m.changed = commitLanes(m.uwide[slot], m.ovlUWide[slot]) || m.changed
				}
			}
		}
		if !m.changed {
			return nil
		}
	}
	return fmt.Errorf("sim: combinational logic did not settle (cycle?)")
}

// commitWord copies src[slot] into dst[slot], reporting a change.
func commitWord(dst, src []uint64, slot int32) bool {
	if dst[slot] == src[slot] {
		return false
	}
	dst[slot] = src[slot]
	return true
}

// commitLanes copies src into dst, reporting a change.
func commitLanes(dst, src []uint64) bool {
	if slices.Equal(dst, src) {
		return false
	}
	copy(dst, src)
	return true
}

// edgeLanes mirrors mach.edge over lane state. fired holds one lane mask
// per clock domain (lane l of fired[k] set when domain k ticked in lane l);
// nil for single-domain batches, where every block runs in every lane. A
// block whose domain fired in only some lanes runs under the write-mask
// predication already used for branches, so non-fired lanes keep their
// committed state bit-for-bit.
func (m *lmach) edgeLanes(fired []uint64) error {
	m.ngen++
	m.nbaList = m.nbaList[:0]
	lp := m.lp
	dom := lp.p.seqDomain
	for i, body := range lp.seqs {
		if fired != nil {
			w := fired[dom[i]]
			if w == 0 {
				continue
			}
			m.wm = w
		}
		m.gen++ // fresh blocking overlay per block
		m.touched = m.touched[:0]
		body(m)
		if m.err != nil {
			return m.err
		}
	}
	m.wm = ^uint64(0)
	for _, slot := range m.nbaList {
		if lp.isBit[slot] {
			m.bits[slot] = m.nbaBits[slot]
			if lp.four {
				m.ubits[slot] = m.nbaUBits[slot]
			}
			continue
		}
		copy(m.wide[slot], m.nbaWide[slot])
		if lp.four {
			copy(m.uwide[slot], m.nbaUWide[slot])
		}
	}
	return m.settleLanes()
}

// evalAtBit evaluates a packed expression against an earlier sampled row.
func (m *lmach) evalAtBit(fn laneBitFn, idx int) (uint64, uint64) {
	saved, savedIdx := m.laneRow, m.idx
	m.laneRow, m.idx = m.rows[idx], idx
	v, u := fn(m)
	m.laneRow, m.idx = saved, savedIdx
	return v, u
}

// evalAtVec evaluates a per-lane expression against an earlier sampled row.
func (m *lmach) evalAtVec(fn laneVecFn, idx int) ([]uint64, []uint64) {
	saved, savedIdx := m.laneRow, m.idx
	m.laneRow, m.idx = m.rows[idx], idx
	vv, uu := fn(m)
	m.laneRow, m.idx = saved, savedIdx
	return vv, uu
}

// ---------------------------------------------------------------------------
// Per-lane vector kernels
// ---------------------------------------------------------------------------

// packLanes packs bit shift of every lane's value into a word. Like
// nonzeroLanes, it packs an absent Unk plane (nil, two-state) to 0.
func packLanes(vv []uint64, shift uint) uint64 {
	var w uint64
	for l, v := range vv {
		w |= ((v >> shift) & 1) << uint(l)
	}
	return w
}

// nonzeroLanes packs the lanes whose value is nonzero into a word.
func nonzeroLanes(vv []uint64) uint64 {
	var w uint64
	for l, v := range vv {
		if v != 0 {
			w |= 1 << uint(l)
		}
	}
	return w
}

// equalLanes packs the lanes where a and b agree into a word.
func equalLanes(a, b []uint64) uint64 {
	var w uint64
	for l := 0; l < 64; l++ {
		if a[l] == b[l] {
			w |= 1 << uint(l)
		}
	}
	return w
}

// mergeLanes copies the lanes of vv, and of its Unk plane uu unless that
// is nil, that wm selects into dv and du.
func mergeLanes(dv, du, vv, uu []uint64, wm uint64) {
	switch {
	case wm == ^uint64(0):
		copy(dv, vv)
		copy(du, uu)
	case uu == nil:
		for l := 0; l < 64; l++ {
			if wm>>uint(l)&1 == 1 {
				dv[l] = vv[l]
			}
		}
	default:
		for l := 0; l < 64; l++ {
			if wm>>uint(l)&1 == 1 {
				dv[l], du[l] = vv[l], uu[l]
			}
		}
	}
}

// blendLanes selects a's lane where sel is set and b's elsewhere.
func blendLanes(out, a, b []uint64, sel uint64) {
	for l := 0; l < 64; l++ {
		if sel>>uint(l)&1 == 1 {
			out[l] = a[l]
		} else {
			out[l] = b[l]
		}
	}
}

// extractLanes shifts every lane right by shift and masks it; an absent
// Unk plane extracts nothing.
func extractLanes(out, vv []uint64, shift uint, mask uint64) {
	for l, v := range vv {
		out[l] = (v >> shift) & mask
	}
}

// ---------------------------------------------------------------------------
// Emitter layer shared by both value domains
// ---------------------------------------------------------------------------

// laneCore is the part of a lane emitter both value domains share: the
// register allocator, the statement layer, every store, and every
// expression kernel whose four-state formula, with all lanes known, is the
// two-state one.
//
// Each domain's emitter embeds it, and Go inlines a small method into the
// wrapper it generates for a promoted method, compiling the closure copy
// that makes without inlining the closure's own calls. The small
// closure-building methods (fail, unknown, storeConcat) are therefore kept
// out of line, so their closures read registers with (*lmach).reg inlined.
type laneCore struct {
	lp *LanePlan
}

func (c *laneCore) newReg() int {
	r := c.lp.nregs
	c.lp.nregs++
	return r
}

func (c *laneCore) constReg(v, u uint64) int {
	r := c.newReg()
	c.lp.consts = append(c.lp.consts, laneConst{reg: r, v: v, u: u})
	return r
}

func (c *laneCore) nop() laneStmtFn { return func(*lmach) {} }

// block runs a block's statements in order, stopping at the first error.
func (c *laneCore) block(body []laneStmtFn) laneStmtFn {
	return func(m *lmach) {
		for _, fn := range body {
			fn(m)
			if m.err != nil {
				return
			}
		}
	}
}

// ifStmt runs both branches under complementary write masks. The then
// branch takes the lanes whose condition is a known nonzero: an x
// condition takes the else branch, like the scalar engine (IEEE 1364 §9.4:
// x is not true).
func (c *laneCore) ifStmt(ce lexpr, then, els laneStmtFn) laneStmtFn {
	cf := c.truth(ce)
	return func(m *lmach) {
		cw, _ := cf(m)
		if m.err != nil {
			return
		}
		save := m.wm
		if tw := save & cw; tw != 0 {
			m.wm = tw
			then(m)
			if m.err != nil {
				m.wm = save
				return
			}
		}
		if els != nil {
			if ew := save &^ cw; ew != 0 {
				m.wm = ew
				els(m)
			}
		}
		m.wm = save
	}
}

// caseStmt runs each arm under the mask of lanes whose subject matches a
// label (case equality over both planes) and no earlier label.
func (c *laneCore) caseStmt(se lexpr, items []caseArm[lexpr, laneStmtFn], deflt laneStmtFn) laneStmtFn {
	sf := c.asVec(se)
	arms := make([]caseArm[laneVecFn, laneStmtFn], len(items))
	for i, item := range items {
		arms[i] = caseArm[laneVecFn, laneStmtFn]{labels: c.vecs(item.labels), body: item.body}
	}
	// Snapshot the subject into a dedicated register: arm bodies may
	// write the subject signal, and later labels must still compare
	// against the value sampled at case entry (scalar semantics).
	subjReg := c.newReg()
	return func(m *lmach) {
		sv, su := sf(m)
		if m.err != nil {
			return
		}
		subjV, subjU := m.reg(subjReg)
		copy(subjV, sv)
		copy(subjU, su)
		save := m.wm
		remaining := save
		for i := range arms {
			if remaining == 0 {
				break
			}
			for _, lf := range arms[i].labels {
				if remaining == 0 {
					break
				}
				lv, lu := lf(m)
				if m.err != nil {
					m.wm = save
					return
				}
				mw := equalLanes(subjV, lv)
				if subjU != nil {
					mw &= equalLanes(subjU, lu)
				}
				if aw := remaining & mw; aw != 0 {
					remaining &^= aw
					m.wm = aw
					arms[i].body(m)
					if m.err != nil {
						m.wm = save
						return
					}
				}
			}
		}
		if deflt != nil && remaining != 0 {
			m.wm = remaining
			deflt(m)
		}
		m.wm = save
	}
}

// packs reports whether re stores word-wide into sig, a whole single-bit
// target: the packed value is already canonical and a single bit per lane,
// so the width mask is a no-op.
func (c *laneCore) packs(re lexpr, sig *compile.Signal) bool {
	return re.bit != nil && sig != nil && sig.Width == 1
}

func (c *laneCore) assign(re lexpr, mode writeMode, sig *compile.Signal, store laneStoreFn) laneStmtFn {
	if c.packs(re, sig) {
		slot, bf := int32(sig.Slot), re.bit
		return func(m *lmach) {
			v, u := bf(m)
			m.putBit(slot, mode, v, u)
		}
	}
	vf := c.asVec(re)
	return func(m *lmach) {
		vv, uu := vf(m)
		store(m, vv, uu)
	}
}

// store lowers a whole-signal store. The incoming register holds the
// unmasked RHS per lane; the store applies the slot's width mask and the
// mode's write discipline under the write mask.
func (c *laneCore) store(sig *compile.Signal, mode writeMode) laneStoreFn {
	slot := int32(sig.Slot)
	mask := sig.Mask()
	if sig.Width == 1 {
		// Pack the per-lane LSBs (x wins over the value bit) and reuse the
		// packed write path.
		return func(m *lmach, vv, uu []uint64) {
			u := packLanes(uu, 0)
			m.putBit(slot, mode, packLanes(vv, 0)&^u, u)
		}
	}
	if mode == wAssign {
		return func(m *lmach, vv, uu []uint64) { m.assignVec(slot, vv, uu, mask) }
	}
	reg := c.newReg()
	return func(m *lmach, vv, uu []uint64) {
		mv, mu := m.reg(reg)
		if mu == nil {
			extractLanes(mv, vv, 0, mask)
		} else {
			for l := 0; l < 64; l++ {
				mu[l] = uu[l] & mask
				mv[l] = vv[l] & mask &^ mu[l]
			}
		}
		if mode != wSeqNBA {
			m.writeOvlVec(slot, mv, mu)
		}
		if mode != wComb {
			m.writeNBAVec(slot, mv, mu)
		}
	}
}

// storeIndex writes bit idx of sig through inner, the whole-signal store.
// Lanes whose index is unknown or >= 64 skip the write entirely (the
// scalar engine's no-effect rule), via the predication mask.
func (c *laneCore) storeIndex(sig *compile.Signal, ie lexpr, mode writeMode, inner laneStoreFn) laneStoreFn {
	idxFn := c.asVec(ie)
	base := c.rmwBase(int32(sig.Slot), mode)
	reg := c.newReg()
	return func(m *lmach, vv, uu []uint64) {
		iv, iu := idxFn(m)
		if m.err != nil {
			return
		}
		bv, bu := base(m)
		ov, ou := m.reg(reg)
		known := ^nonzeroLanes(iu)
		var inRange uint64
		for l := 0; l < 64; l++ {
			if idx := iv[l]; idx < 64 && known>>uint(l)&1 == 1 {
				inRange |= 1 << uint(l)
				ov[l] = (bv[l] &^ (1 << idx)) | ((vv[l] & 1) << idx)
			}
		}
		if ou != nil {
			for l := 0; l < 64; l++ {
				if inRange>>uint(l)&1 == 1 {
					idx := iv[l]
					ou[l] = (bu[l] &^ (1 << idx)) | ((uu[l] & 1) << idx)
				}
			}
		}
		save := m.wm
		if w := save & inRange; w != 0 {
			m.wm = w
			inner(m, ov, ou)
		}
		m.wm = save
	}
}

func (c *laneCore) storeSlice(sig *compile.Signal, shift uint, sm uint64, mode writeMode, inner laneStoreFn) laneStoreFn {
	base := c.rmwBase(int32(sig.Slot), mode)
	reg := c.newReg()
	return func(m *lmach, vv, uu []uint64) {
		bv, bu := base(m)
		ov, ou := m.reg(reg)
		for l := 0; l < 64; l++ {
			ov[l] = (bv[l] &^ sm) | ((vv[l] << shift) & sm)
		}
		if ou != nil {
			for l := 0; l < 64; l++ {
				ou[l] = (bu[l] &^ sm) | ((uu[l] << shift) & sm)
			}
		}
		inner(m, ov, ou)
	}
}

//go:noinline
func (c *laneCore) storeConcat(parts []laneStoreFn, shifts []uint, masks []uint64) laneStoreFn {
	regs := make([]int, len(parts))
	for i := range regs {
		regs[i] = c.newReg()
	}
	return func(m *lmach, vv, uu []uint64) {
		for i, st := range parts {
			ov, ou := m.reg(regs[i])
			extractLanes(ov, vv, shifts[i], masks[i])
			extractLanes(ou, uu, shifts[i], masks[i])
			st(m, ov, ou)
			if m.err != nil {
				return
			}
		}
	}
}

// rmwBase returns the per-lane base values for bit/slice read-modify-write
// under the given mode (rmwBit, rmwVec).
func (c *laneCore) rmwBase(slot int32, mode writeMode) laneVecFn {
	if c.lp.isBit[slot] {
		reg := c.newReg()
		return func(m *lmach) ([]uint64, []uint64) {
			v, u := m.rmwBit(slot, mode)
			return m.spread(reg, v, u)
		}
	}
	reg := -1
	if mode == wSeqNBA {
		reg = c.newReg()
	}
	return func(m *lmach) ([]uint64, []uint64) { return m.rmwVec(slot, mode, reg) }
}

// asVec adapts any lane expression to per-lane register form: a packed
// word pair expands to one single-bit value and Unk bit per lane, exactly
// the scalar values it encodes.
func (c *laneCore) asVec(e lexpr) laneVecFn {
	if e.vec != nil {
		return e.vec
	}
	bf, reg := e.bit, c.newReg()
	return func(m *lmach) ([]uint64, []uint64) {
		v, u := bf(m)
		return m.spread(reg, v, u)
	}
}

// vecs adapts compiled expressions to per-lane register form.
func (c *laneCore) vecs(es []lexpr) []laneVecFn {
	fns := make([]laneVecFn, len(es))
	for i, e := range es {
		fns[i] = c.asVec(e)
	}
	return fns
}

// truth compiles the lanes whose value is a known nonzero into the value
// word of a packed function; callers ignore its Unk word. A packed
// expression is its own truth: its values are canonical single bits.
func (c *laneCore) truth(e lexpr) laneBitFn {
	if e.bit != nil {
		return e.bit
	}
	vf := e.vec
	return func(m *lmach) (uint64, uint64) {
		vv, _ := vf(m)
		return nonzeroLanes(vv), 0
	}
}

// bool3 compiles three-valued truth masks: tw = lanes with a known nonzero
// value, xw = lanes whose truth is undetermined (none in two-state); false
// lanes are the rest.
func (c *laneCore) bool3(e lexpr) laneBoolFn {
	if e.bit != nil {
		bf := e.bit
		return func(m *lmach) (uint64, uint64) {
			v, u := bf(m)
			return v, u &^ v
		}
	}
	vf := e.vec
	return func(m *lmach) (uint64, uint64) {
		vv, uu := vf(m)
		tw := nonzeroLanes(vv)
		return tw, nonzeroLanes(uu) &^ tw
	}
}

// lsb packs the per-lane least-significant bit pair (the $rose/$fell
// sampling rule).
func (c *laneCore) lsb(e lexpr) laneBitFn {
	if e.bit != nil {
		return e.bit
	}
	vf := e.vec
	return func(m *lmach) (uint64, uint64) {
		vv, uu := vf(m)
		return packLanes(vv, 0), packLanes(uu, 0)
	}
}

func (c *laneCore) param(v uint64) lexpr { return c.konst(known(v)) }

// konst classifies a broadcast constant: single-bit values pack, anything
// else becomes a prefilled register holding the raw scalar value (and its
// Unk plane).
func (c *laneCore) konst(v V4) lexpr {
	if v.Val|v.Unk <= 1 {
		vw, uw := -v.Val, -v.Unk
		if uw == 0 { // every two-state constant: a one-word closure
			return lexpr{bit: func(*lmach) (uint64, uint64) { return vw, 0 }}
		}
		return lexpr{bit: func(*lmach) (uint64, uint64) { return vw, uw }}
	}
	reg := c.constReg(v.Val, v.Unk)
	return lexpr{vec: func(m *lmach) ([]uint64, []uint64) { return m.reg(reg) }}
}

// signal reads a slot through the blocking overlay, choosing the reader
// for the domain's planes once, at build time.
func (c *laneCore) signal(sig *compile.Signal) lexpr {
	slot := int32(sig.Slot)
	switch {
	case sig.Width == 1 && c.lp.four:
		return lexpr{bit: func(m *lmach) (uint64, uint64) { return m.readBit4(slot) }}
	case sig.Width == 1:
		return lexpr{bit: func(m *lmach) (uint64, uint64) { return m.readBit(slot), 0 }}
	case c.lp.four:
		return lexpr{vec: func(m *lmach) ([]uint64, []uint64) { return m.readVec4(slot) }}
	}
	return lexpr{vec: func(m *lmach) ([]uint64, []uint64) { return m.readVec(slot), nil }}
}

// fail reports err when evaluated.
//
//go:noinline
func (c *laneCore) fail(err error) lexpr {
	reg := c.constReg(0, 0)
	return lexpr{vec: func(m *lmach) ([]uint64, []uint64) {
		m.fail(err)
		return m.reg(reg)
	}}
}

func (c *laneCore) slice(xe lexpr, shift uint, mask uint64) lexpr {
	xf := c.asVec(xe)
	if mask == 1 {
		return lexpr{bit: func(m *lmach) (uint64, uint64) {
			vv, uu := xf(m)
			return packLanes(vv, shift), packLanes(uu, shift)
		}}
	}
	reg := c.newReg()
	return lexpr{vec: func(m *lmach) ([]uint64, []uint64) {
		vv, uu := xf(m)
		ov, ou := m.reg(reg)
		extractLanes(ov, vv, shift, mask)
		extractLanes(ou, uu, shift, mask)
		return ov, ou
	}}
}

func (c *laneCore) concat(elems []lexpr, widths []uint, masks []uint64) lexpr {
	fns, reg := c.vecs(elems), c.newReg()
	return lexpr{vec: func(m *lmach) ([]uint64, []uint64) {
		ov, ou := m.reg(reg)
		clear(ov)
		clear(ou)
		for i, fn := range fns {
			vv, uu := fn(m)
			for l := 0; l < 64; l++ {
				ov[l] = (ov[l] << widths[i]) | (vv[l] & masks[i])
			}
			if ou != nil {
				for l := 0; l < 64; l++ {
					ou[l] = (ou[l] << widths[i]) | (uu[l] & masks[i])
				}
			}
		}
		return ov, ou
	}}
}

func (c *laneCore) repl(fe lexpr, reps int, uw uint, mask uint64) lexpr {
	fn, reg := c.asVec(fe), c.newReg()
	repl := func(out, vv []uint64) {
		for l, v := range vv {
			ev := v & mask
			var o uint64
			for i := 0; i < reps; i++ {
				o = (o << uw) | ev
			}
			out[l] = o
		}
	}
	return lexpr{vec: func(m *lmach) ([]uint64, []uint64) {
		vv, uu := fn(m)
		ov, ou := m.reg(reg)
		repl(ov, vv)
		repl(ou, uu)
		return ov, ou
	}}
}

// inSample reports whether m evaluates over sampled rows, failing the
// batch with fn's positioned error when it does not.
func (m *lmach) inSample(pos verilog.Pos, fn string) bool {
	if m.rows != nil {
		return true
	}
	m.fail(evalErrf(pos, "%s outside sampled context", fn))
	return false
}

// past lowers $past(x, d): the operand evaluated against the sampled row d
// cycles back, or the sampled default (0) before the start of time.
func (c *laneCore) past(pos verilog.Pos, fe lexpr, depth uint64) lexpr {
	d := int(depth)
	if bf := fe.bit; bf != nil {
		return lexpr{bit: func(m *lmach) (uint64, uint64) {
			if !m.inSample(pos, "$past") || m.idx < d {
				return 0, 0
			}
			return m.evalAtBit(bf, m.idx-d)
		}}
	}
	vf, zreg := fe.vec, c.constReg(0, 0)
	return lexpr{vec: func(m *lmach) ([]uint64, []uint64) {
		if !m.inSample(pos, "$past") || m.idx < d {
			return m.reg(zreg)
		}
		return m.evalAtVec(vf, m.idx-d)
	}}
}

// sampled lowers $rose, $fell, $stable and $changed, which compare the
// current sample with the previous cycle's (a zero sample at cycle 0):
// $rose and $fell the least-significant bit, $stable and $changed the
// whole value. Any x in either sample makes the lane x (v4Sampled).
func (c *laneCore) sampled(pos verilog.Pos, name string, fe lexpr) lexpr {
	rose, fell, stable := name == "$rose", name == "$fell", name == "$stable"
	if bf := fe.bit; bf != nil || rose || fell {
		if rose || fell {
			bf = c.lsb(fe)
		}
		return lexpr{bit: func(m *lmach) (uint64, uint64) {
			if !m.inSample(pos, name) {
				return 0, 0
			}
			nv, nu := bf(m)
			var bv, bu uint64
			if m.idx > 0 {
				bv, bu = m.evalAtBit(bf, m.idx-1)
			}
			unk := bu | nu
			v := bv ^ nv // $changed
			switch {
			case rose:
				v = ^bv & nv
			case fell:
				v = bv & ^nv
			case stable:
				v = ^v
			}
			return v &^ unk, unk
		}}
	}
	vf, nowReg := fe.vec, c.newReg()
	return lexpr{bit: func(m *lmach) (uint64, uint64) {
		if !m.inSample(pos, name) {
			return 0, 0
		}
		same, unk := m.sameSample(vf, nowReg)
		if !stable {
			same = ^same
		}
		return same &^ unk, unk
	}}
}

// sameSample compares vf's per-lane sample at the current cycle with the
// previous cycle's (a zero sample at cycle 0): same selects the lanes whose
// value planes agree, unk those with an x in either sample (0 in
// two-state). Register r holds the current sample while the previous one
// is evaluated, since that evaluation reuses the operand's registers.
func (m *lmach) sameSample(vf laneVecFn, r int) (same, unk uint64) {
	vv, uu := vf(m)
	if m.idx == 0 {
		return ^nonzeroLanes(vv), nonzeroLanes(uu)
	}
	nv, nu := m.reg(r)
	copy(nv, vv)
	copy(nu, uu)
	bv, bu := m.evalAtVec(vf, m.idx-1)
	return equalLanes(nv, bv), nonzeroLanes(nu) | nonzeroLanes(bu)
}

// bitUnary lowers a unary operator over a packed operand whose static mask
// is 1, with the same word formulas in both domains: !, ~ and ~^ flip a
// known bit and keep an x (v4Not), and -, +, &, | and ^ are identities on
// a canonical single bit (-v&1 == v).
func bitUnary(op verilog.UnaryOp, bf laneBitFn) (lexpr, bool) {
	switch op {
	case verilog.UnaryLogicalNot, verilog.UnaryBitNot, verilog.UnaryRedXnor:
		return lexpr{bit: func(m *lmach) (uint64, uint64) {
			v, u := bf(m)
			return ^(v | u), u
		}}, true
	case verilog.UnaryMinus, verilog.UnaryPlus, verilog.UnaryRedAnd,
		verilog.UnaryRedOr, verilog.UnaryRedXor:
		return lexpr{bit: bf}, true
	}
	return lexpr{}, false
}

// ---------------------------------------------------------------------------
// Two-state expressions
// ---------------------------------------------------------------------------
//
// Nodes whose scalar value is provably in {0,1} and that have a word-wide
// kernel emit packed form; everything else emits a per-lane loop with the
// exact scalar formulas — in particular all arithmetic, whose carries a
// packed word cannot represent. Every packed kernel here returns a zero
// Unk word.

// laneEmitter emits the two-state lane closures.
type laneEmitter struct {
	laneCore
}

func (c *laneEmitter) number(x *verilog.Number) lexpr { return c.param(x.Value) }

func (c *laneEmitter) ternary(ce, xe, ye lexpr) lexpr {
	cf := c.truth(ce)
	if xe.bit != nil && ye.bit != nil {
		xf, yf := xe.bit, ye.bit
		return lexpr{bit: func(m *lmach) (uint64, uint64) {
			cw, _ := cf(m)
			// Arms evaluate lazily like the scalar plan when the
			// selection is uniform across lanes.
			if cw == ^uint64(0) {
				return xf(m)
			}
			if cw == 0 {
				return yf(m)
			}
			xw, _ := xf(m)
			yw, _ := yf(m)
			return (cw & xw) | (^cw & yw), 0
		}}
	}
	xf, yf := c.asVec(xe), c.asVec(ye)
	reg := c.newReg()
	return lexpr{vec: func(m *lmach) ([]uint64, []uint64) {
		cw, _ := cf(m)
		if cw == ^uint64(0) {
			return xf(m)
		}
		if cw == 0 {
			return yf(m)
		}
		xv, _ := xf(m)
		yv, _ := yf(m)
		out := m.regs[reg]
		blendLanes(out, xv, yv, cw)
		return out, nil
	}}
}

func (c *laneEmitter) index(xe, ie lexpr) lexpr {
	xf, idxFn := c.asVec(xe), c.asVec(ie)
	return lexpr{bit: func(m *lmach) (uint64, uint64) {
		// Base before index, matching the interpreter's order.
		vv, _ := xf(m)
		iv, _ := idxFn(m)
		var w uint64
		for l := 0; l < 64; l++ {
			if idx := iv[l]; idx < 64 {
				w |= ((vv[l] >> idx) & 1) << uint(l)
			}
		}
		return w, 0
	}}
}

func (c *laneEmitter) unary(op verilog.UnaryOp, xe lexpr, mask uint64) (lexpr, bool) {
	// Packed kernels are valid only when the operand is packed AND the
	// static mask is 1: a {0,1}-valued operand with a wider static width
	// (e.g. a 1-valued parameter) must reduce over the full mask.
	if xe.bit != nil && mask == 1 {
		return bitUnary(op, xe.bit)
	}
	xf := c.asVec(xe)
	packed := func(per func(v uint64) uint64) lexpr {
		return lexpr{bit: func(m *lmach) (uint64, uint64) {
			vv, _ := xf(m)
			var w uint64
			for l := 0; l < 64; l++ {
				w |= per(vv[l]) << uint(l)
			}
			return w, 0
		}}
	}
	vec := func(per func(v uint64) uint64) lexpr {
		reg := c.newReg()
		return lexpr{vec: func(m *lmach) ([]uint64, []uint64) {
			vv, _ := xf(m)
			out := m.regs[reg]
			for l := 0; l < 64; l++ {
				out[l] = per(vv[l])
			}
			return out, nil
		}}
	}
	switch op {
	case verilog.UnaryLogicalNot:
		return packed(func(v uint64) uint64 { return boolVal(v&mask == 0) }), true
	case verilog.UnaryBitNot:
		return vec(func(v uint64) uint64 { return ^v & mask }), true
	case verilog.UnaryMinus:
		return vec(func(v uint64) uint64 { return -(v & mask) & mask }), true
	case verilog.UnaryPlus:
		return vec(func(v uint64) uint64 { return v & mask }), true
	case verilog.UnaryRedAnd:
		return packed(func(v uint64) uint64 { return boolVal(v&mask == mask) }), true
	case verilog.UnaryRedOr:
		return packed(func(v uint64) uint64 { return boolVal(v&mask != 0) }), true
	case verilog.UnaryRedXor:
		return packed(func(v uint64) uint64 { return uint64(bits.OnesCount64(v&mask) & 1) }), true
	case verilog.UnaryRedXnor:
		return packed(func(v uint64) uint64 { return uint64(1 - bits.OnesCount64(v&mask)&1) }), true
	}
	return lexpr{}, false
}

func (c *laneEmitter) binary(op verilog.BinaryOp, ae, be lexpr, w int) (lexpr, bool) {
	af, bf := ae.bit, be.bit
	bothBit := af != nil && bf != nil
	switch op {
	case verilog.BinLogAnd:
		at, bt := c.truth(ae), c.truth(be)
		return lexpr{bit: func(m *lmach) (uint64, uint64) {
			a, _ := at(m)
			// Short-circuit like the scalar plan when no lane needs the RHS.
			if a == 0 {
				return 0, 0
			}
			b, _ := bt(m)
			return a & b, 0
		}}, true
	case verilog.BinLogOr:
		at, bt := c.truth(ae), c.truth(be)
		return lexpr{bit: func(m *lmach) (uint64, uint64) {
			a, _ := at(m)
			if a == ^uint64(0) {
				return a, 0
			}
			b, _ := bt(m)
			return a | b, 0
		}}, true
	case verilog.BinAnd:
		if bothBit {
			return lexpr{bit: func(m *lmach) (uint64, uint64) { a, _ := af(m); b, _ := bf(m); return a & b, 0 }}, true
		}
		return c.vecBin(ae, be, func(a, b uint64) uint64 { return a & b }), true
	case verilog.BinOr:
		if bothBit {
			return lexpr{bit: func(m *lmach) (uint64, uint64) { a, _ := af(m); b, _ := bf(m); return a | b, 0 }}, true
		}
		return c.vecBin(ae, be, func(a, b uint64) uint64 { return a | b }), true
	case verilog.BinXor:
		if bothBit {
			return lexpr{bit: func(m *lmach) (uint64, uint64) { a, _ := af(m); b, _ := bf(m); return a ^ b, 0 }}, true
		}
		return c.vecBin(ae, be, func(a, b uint64) uint64 { return a ^ b }), true
	case verilog.BinXnor:
		mask := maskFor(w)
		if bothBit && mask == 1 {
			return lexpr{bit: func(m *lmach) (uint64, uint64) { a, _ := af(m); b, _ := bf(m); return ^(a ^ b), 0 }}, true
		}
		return c.vecBin(ae, be, func(a, b uint64) uint64 { return ^(a ^ b) & mask }), true
	case verilog.BinEq, verilog.BinCaseEq:
		if bothBit {
			return lexpr{bit: func(m *lmach) (uint64, uint64) { a, _ := af(m); b, _ := bf(m); return ^(a ^ b), 0 }}, true
		}
		return c.packedCmp(ae, be, func(a, b uint64) bool { return a == b }), true
	case verilog.BinNe, verilog.BinCaseNe:
		if bothBit {
			return lexpr{bit: func(m *lmach) (uint64, uint64) { a, _ := af(m); b, _ := bf(m); return a ^ b, 0 }}, true
		}
		return c.packedCmp(ae, be, func(a, b uint64) bool { return a != b }), true
	case verilog.BinLt:
		if bothBit {
			return lexpr{bit: func(m *lmach) (uint64, uint64) { a, _ := af(m); b, _ := bf(m); return ^a & b, 0 }}, true
		}
		return c.packedCmp(ae, be, func(a, b uint64) bool { return a < b }), true
	case verilog.BinLe:
		if bothBit {
			return lexpr{bit: func(m *lmach) (uint64, uint64) { a, _ := af(m); b, _ := bf(m); return ^a | b, 0 }}, true
		}
		return c.packedCmp(ae, be, func(a, b uint64) bool { return a <= b }), true
	case verilog.BinGt:
		if bothBit {
			return lexpr{bit: func(m *lmach) (uint64, uint64) { a, _ := af(m); b, _ := bf(m); return a &^ b, 0 }}, true
		}
		return c.packedCmp(ae, be, func(a, b uint64) bool { return a > b }), true
	case verilog.BinGe:
		if bothBit {
			return lexpr{bit: func(m *lmach) (uint64, uint64) { a, _ := af(m); b, _ := bf(m); return a | ^b, 0 }}, true
		}
		return c.packedCmp(ae, be, func(a, b uint64) bool { return a >= b }), true
	case verilog.BinAdd:
		// Never a packed kernel even for 1-bit operands: the scalar engine
		// computes 1+1 = 2 in 64 bits and the carry is observable through
		// enclosing comparisons, shifts and indexing.
		return c.vecBin(ae, be, func(a, b uint64) uint64 { return a + b }), true
	case verilog.BinSub:
		return c.vecBin(ae, be, func(a, b uint64) uint64 { return a - b }), true
	case verilog.BinMul:
		return c.vecBin(ae, be, func(a, b uint64) uint64 { return a * b }), true
	case verilog.BinDiv:
		return c.vecBin(ae, be, func(a, b uint64) uint64 {
			if b == 0 {
				return 0 // x in 4-state Verilog; 0 under two-state
			}
			return a / b
		}), true
	case verilog.BinMod:
		return c.vecBin(ae, be, func(a, b uint64) uint64 {
			if b == 0 {
				return 0
			}
			return a % b
		}), true
	case verilog.BinShl:
		return c.vecBin(ae, be, func(a, b uint64) uint64 {
			if b >= 64 {
				return 0
			}
			return a << b
		}), true
	case verilog.BinShr:
		return c.vecBin(ae, be, func(a, b uint64) uint64 {
			if b >= 64 {
				return 0
			}
			return a >> b
		}), true
	case verilog.BinAShr:
		return c.vecBin(ae, be, func(a, b uint64) uint64 { return ashr(a, b, w) }), true
	}
	return lexpr{}, false
}

// vecBin lowers a binary operator to a per-lane loop over the exact scalar
// formula.
func (c *laneEmitter) vecBin(ae, be lexpr, op func(a, b uint64) uint64) lexpr {
	af, bf := c.asVec(ae), c.asVec(be)
	reg := c.newReg()
	return lexpr{vec: func(m *lmach) ([]uint64, []uint64) {
		av, _ := af(m)
		bv, _ := bf(m)
		out := m.regs[reg]
		for l := 0; l < 64; l++ {
			out[l] = op(av[l], bv[l])
		}
		return out, nil
	}}
}

// packedCmp lowers a comparison to per-lane evaluation packed into a word.
func (c *laneEmitter) packedCmp(ae, be lexpr, op func(a, b uint64) bool) lexpr {
	af, bf := c.asVec(ae), c.asVec(be)
	return lexpr{bit: func(m *lmach) (uint64, uint64) {
		av, _ := af(m)
		bv, _ := bf(m)
		var w uint64
		for l := 0; l < 64; l++ {
			if op(av[l], bv[l]) {
				w |= 1 << uint(l)
			}
		}
		return w, 0
	}}
}

func (c *laneEmitter) reduce(name string, fe lexpr, mask uint64) lexpr {
	if name == "$isunknown" {
		// Two-state: never unknown; evaluate the argument for error effects.
		if fe.bit != nil {
			bf := fe.bit
			return lexpr{bit: func(m *lmach) (uint64, uint64) { bf(m); return 0, 0 }}
		}
		vf := fe.vec
		return lexpr{bit: func(m *lmach) (uint64, uint64) { vf(m); return 0, 0 }}
	}
	fn := c.asVec(fe)
	switch name {
	case "$countones":
		reg := c.newReg()
		return lexpr{vec: func(m *lmach) ([]uint64, []uint64) {
			vv, _ := fn(m)
			out := m.regs[reg]
			for l := 0; l < 64; l++ {
				out[l] = uint64(bits.OnesCount64(vv[l] & mask))
			}
			return out, nil
		}}
	case "$onehot":
		return lexpr{bit: func(m *lmach) (uint64, uint64) {
			vv, _ := fn(m)
			var w uint64
			for l := 0; l < 64; l++ {
				if bits.OnesCount64(vv[l]&mask) == 1 {
					w |= 1 << uint(l)
				}
			}
			return w, 0
		}}
	default: // $onehot0
		return lexpr{bit: func(m *lmach) (uint64, uint64) {
			vv, _ := fn(m)
			var w uint64
			for l := 0; l < 64; l++ {
				if bits.OnesCount64(vv[l]&mask) <= 1 {
					w |= 1 << uint(l)
				}
			}
			return w, 0
		}}
	}
}
