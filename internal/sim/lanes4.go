package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/verilog"
)

// This file is the four-state half of the lane-parallel lowering: the same
// packed/per-lane hybrid as lanes.go over paired Val/Unk planes. Packed
// single-bit kernels apply the v4.go per-bit formulas word-wide (v4And's
// absorption, v4Or, v4Xor, v4Not and v4Merge are all bitwise, so one word
// op evaluates them for 64 lanes); everything wider falls back to per-lane
// loops over the exact V4 operator functions shared with plan4.go and the
// reference interpreter.

// laneBit4Fn evaluates a packed four-state expression: bit l of val/unk is
// lane l's canonical single-bit value (val is 0 wherever unk is 1).
type laneBit4Fn func(m *lmach) (val, unk uint64)

// laneVec4Fn evaluates per lane into paired 64-entry registers of raw
// (canonical) V4 planes.
type laneVec4Fn func(m *lmach) (vv, uu []uint64)

// laneStore4Fn stores paired per-lane planes into a target.
type laneStore4Fn func(m *lmach, vv, uu []uint64)

// lexpr4 is one compiled four-state lane expression: exactly one of
// bit/vec is set.
type lexpr4 struct {
	bit laneBit4Fn
	vec laneVec4Fn
}

// lanePlan4 is the compile-once four-state lane plan, cached on the scalar
// plan (Plan.lanes4) like its two-state twin.
type lanePlan4 struct {
	p     *Plan
	isBit []bool

	initValBits []uint64 // packed broadcast initial values (1-bit slots)
	initUnkBits []uint64
	initVal     []uint64 // per-slot broadcast initial values (wide slots)
	initUnk     []uint64

	nregs  int
	consts []laneConst4

	assigns []laneStmtFn
	combs   []laneStmtFn
	seqs    []laneStmtFn

	svaLane4 map[verilog.Expr]lexpr4
	allSVA   bool
}

// laneConst4 prefills one register pair with a broadcast four-state value.
type laneConst4 struct {
	reg      int
	val, unk uint64
}

func (p *Plan) lanes4() *lanePlan4 {
	p.onceL4.Do(func() { p.pl4 = buildLanePlan4(p) })
	return p.pl4
}

func buildLanePlan4(p *Plan) *lanePlan4 {
	p4 := p.fourState()
	if p4 == nil {
		return nil
	}
	d := p.design
	lp := &lanePlan4{p: p, svaLane4: map[verilog.Expr]lexpr4{}}
	lp.isBit = make([]bool, p.nslots)
	for _, name := range d.Order {
		sig := d.Signals[name]
		lp.isBit[sig.Slot] = sig.Width == 1
	}
	lp.initValBits = make([]uint64, p.nslots)
	lp.initUnkBits = make([]uint64, p.nslots)
	lp.initVal = make([]uint64, p.nslots)
	lp.initUnk = make([]uint64, p.nslots)
	for s := 0; s < p.nslots; s++ {
		lp.initVal[s] = p.initRow[s]
		lp.initUnk[s] = p4.initUnk[s]
		if lp.isBit[s] {
			if p.initRow[s]&1 != 0 {
				lp.initValBits[s] = ^uint64(0)
			}
			if p4.initUnk[s]&1 != 0 {
				lp.initUnkBits[s] = ^uint64(0)
			}
		}
	}
	c := &laneCompiler4{c: planCompiler{d: d, p: p}, c4: planCompiler4{c: planCompiler{d: d, p: p}}, lp: lp}
	ok := func() bool {
		for _, as := range d.Assigns {
			fn, err := c.compileAssign(as.LHS, as.RHS, wAssign)
			if err != nil {
				return false
			}
			lp.assigns = append(lp.assigns, fn)
		}
		for _, al := range d.CombAlways {
			body, err := c.compileStmt(al.Body, false)
			if err != nil {
				return false
			}
			lp.combs = append(lp.combs, body)
		}
		for _, al := range d.SeqAlways {
			body, err := c.compileStmt(al.Body, true)
			if err != nil {
				return false
			}
			lp.seqs = append(lp.seqs, body)
		}
		return true
	}()
	if !ok {
		return nil
	}
	lp.allSVA = true
	compileSVA := func(e verilog.Expr) {
		if e == nil {
			return
		}
		if le, err := c.expr(e); err == nil {
			lp.svaLane4[e] = le
		} else {
			lp.allSVA = false
		}
	}
	for i := range d.Asserts {
		a := &d.Asserts[i]
		compileSVA(a.DisableIff)
		if a.Seq != nil {
			for _, t := range a.Seq.Antecedent {
				compileSVA(t.Expr)
			}
			for _, t := range a.Seq.Consequent {
				compileSVA(t.Expr)
			}
		}
	}
	return lp
}

// ---------------------------------------------------------------------------
// Four-state lane machine
// ---------------------------------------------------------------------------

func newLmach4(lp *lanePlan4) *lmach {
	p := lp.p
	n := p.nslots
	m := &lmach{
		lp4:      lp,
		bits:     make([]uint64, n),
		ubits:    make([]uint64, n),
		wide:     make([][]uint64, n),
		uwide:    make([][]uint64, n),
		ovlBits:  make([]uint64, n),
		ovlUBits: make([]uint64, n),
		ovlWide:  make([][]uint64, n),
		ovlUWide: make([][]uint64, n),
		ovlGen:   make([]uint32, n),
		gen:      1,
		nbaBits:  make([]uint64, n),
		nbaUBits: make([]uint64, n),
		nbaWide:  make([][]uint64, n),
		nbaUWide: make([][]uint64, n),
		nbaGen:   make([]uint32, n),
		nbaWm:    make([]uint64, n),
		ngen:     1,
		wm:       ^uint64(0),
		regs:     make([][]uint64, lp.nregs),
		uregs:    make([][]uint64, lp.nregs),
	}
	for s := 0; s < n; s++ {
		if lp.isBit[s] {
			m.bits[s] = lp.initValBits[s]
			m.ubits[s] = lp.initUnkBits[s]
			continue
		}
		m.wide[s] = make([]uint64, 64)
		m.uwide[s] = make([]uint64, 64)
		m.ovlWide[s] = make([]uint64, 64)
		m.ovlUWide[s] = make([]uint64, 64)
		m.nbaWide[s] = make([]uint64, 64)
		m.nbaUWide[s] = make([]uint64, 64)
		broadcast(m.wide[s], lp.initVal[s])
		broadcast(m.uwide[s], lp.initUnk[s])
	}
	for i := range m.regs {
		m.regs[i] = make([]uint64, 64)
		m.uregs[i] = make([]uint64, 64)
	}
	for _, kc := range lp.consts {
		broadcast(m.regs[kc.reg], kc.val)
		broadcast(m.uregs[kc.reg], kc.unk)
	}
	return m
}

// traceLmach4 returns a machine for evaluating compiled four-state lane
// expressions over sampled rows.
func traceLmach4(lp *lanePlan4, rows, urows []laneRow) *lmach {
	m := &lmach{
		lp4:    lp,
		ovlGen: make([]uint32, lp.p.nslots),
		gen:    1,
		wm:     ^uint64(0),
		regs:   make([][]uint64, lp.nregs),
		uregs:  make([][]uint64, lp.nregs),
		rows:   rows,
		urows:  urows,
	}
	for i := range m.regs {
		m.regs[i] = make([]uint64, 64)
		m.uregs[i] = make([]uint64, 64)
	}
	for _, kc := range lp.consts {
		broadcast(m.regs[kc.reg], kc.val)
		broadcast(m.uregs[kc.reg], kc.unk)
	}
	return m
}

func (m *lmach) readBit4(slot int32) (uint64, uint64) {
	if m.ovlGen[slot] == m.gen {
		return m.ovlBits[slot], m.ovlUBits[slot]
	}
	return m.bits[slot], m.ubits[slot]
}

func (m *lmach) readVec4(slot int32) ([]uint64, []uint64) {
	if m.ovlGen[slot] == m.gen {
		return m.ovlWide[slot], m.ovlUWide[slot]
	}
	return m.wide[slot], m.uwide[slot]
}

func (m *lmach) writeOvlBit4(slot int32, v, u uint64) {
	if m.ovlGen[slot] != m.gen {
		m.ovlGen[slot] = m.gen
		m.ovlBits[slot] = m.bits[slot]
		m.ovlUBits[slot] = m.ubits[slot]
		m.touched = append(m.touched, slot)
	}
	m.ovlBits[slot] = (m.ovlBits[slot] &^ m.wm) | (v & m.wm)
	m.ovlUBits[slot] = (m.ovlUBits[slot] &^ m.wm) | (u & m.wm)
}

func (m *lmach) writeOvlVec4(slot int32, vv, uu []uint64) {
	if m.ovlGen[slot] != m.gen {
		m.ovlGen[slot] = m.gen
		copy(m.ovlWide[slot], m.wide[slot])
		copy(m.ovlUWide[slot], m.uwide[slot])
		m.touched = append(m.touched, slot)
	}
	dv, du := m.ovlWide[slot], m.ovlUWide[slot]
	for l := 0; l < 64; l++ {
		if m.wm>>uint(l)&1 == 1 {
			dv[l] = vv[l]
			du[l] = uu[l]
		}
	}
}

func (m *lmach) writeNBABit4(slot int32, v, u uint64) {
	if m.nbaGen[slot] != m.ngen {
		m.nbaGen[slot] = m.ngen
		m.nbaBits[slot] = m.bits[slot]
		m.nbaUBits[slot] = m.ubits[slot]
		m.nbaWm[slot] = 0
		m.nbaList = append(m.nbaList, slot)
	}
	m.nbaBits[slot] = (m.nbaBits[slot] &^ m.wm) | (v & m.wm)
	m.nbaUBits[slot] = (m.nbaUBits[slot] &^ m.wm) | (u & m.wm)
	m.nbaWm[slot] |= m.wm
}

func (m *lmach) writeNBAVec4(slot int32, vv, uu []uint64) {
	if m.nbaGen[slot] != m.ngen {
		m.nbaGen[slot] = m.ngen
		copy(m.nbaWide[slot], m.wide[slot])
		copy(m.nbaUWide[slot], m.uwide[slot])
		m.nbaWm[slot] = 0
		m.nbaList = append(m.nbaList, slot)
	}
	dv, du := m.nbaWide[slot], m.nbaUWide[slot]
	for l := 0; l < 64; l++ {
		if m.wm>>uint(l)&1 == 1 {
			dv[l] = vv[l]
			du[l] = uu[l]
		}
	}
	m.nbaWm[slot] |= m.wm
}

// settleLanes4 mirrors mach.settle4 over lane state.
func (m *lmach) settleLanes4() error {
	lp := m.lp4
	for iter := 0; iter < maxCombIterations; iter++ {
		m.changed = false
		m.gen++
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
					v, u := m.ovlBits[slot], m.ovlUBits[slot]
					if m.bits[slot] != v || m.ubits[slot] != u {
						m.bits[slot] = v
						m.ubits[slot] = u
						m.changed = true
					}
					continue
				}
				sv, su := m.ovlWide[slot], m.ovlUWide[slot]
				dv, du := m.wide[slot], m.uwide[slot]
				for l := 0; l < 64; l++ {
					if dv[l] != sv[l] || du[l] != su[l] {
						dv[l] = sv[l]
						du[l] = su[l]
						m.changed = true
					}
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

// edgeLanes4 mirrors mach.edge4 over lane state, with edgeLanes' per-domain
// fired lane masks (nil for single-domain batches).
func (m *lmach) edgeLanes4(fired []uint64) error {
	m.ngen++
	m.nbaList = m.nbaList[:0]
	dom := m.lp4.p.seqDomain
	for i, body := range m.lp4.seqs {
		if fired != nil {
			w := fired[dom[i]]
			if w == 0 {
				continue
			}
			m.wm = w
		}
		m.gen++
		m.touched = m.touched[:0]
		body(m)
		if m.err != nil {
			return m.err
		}
	}
	m.wm = ^uint64(0)
	for _, slot := range m.nbaList {
		if m.lp4.isBit[slot] {
			m.bits[slot] = m.nbaBits[slot]
			m.ubits[slot] = m.nbaUBits[slot]
			continue
		}
		copy(m.wide[slot], m.nbaWide[slot])
		copy(m.uwide[slot], m.nbaUWide[slot])
	}
	return m.settleLanes4()
}

// evalAtBit4 evaluates a packed expression against an earlier sampled row.
func (m *lmach) evalAtBit4(fn laneBit4Fn, idx int) (uint64, uint64) {
	sb, sub, sw, suw, si := m.bits, m.ubits, m.wide, m.uwide, m.idx
	m.bits, m.ubits = m.rows[idx].bits, m.urows[idx].bits
	m.wide, m.uwide, m.idx = m.rows[idx].wide, m.urows[idx].wide, idx
	v, u := fn(m)
	m.bits, m.ubits, m.wide, m.uwide, m.idx = sb, sub, sw, suw, si
	return v, u
}

// evalAtVec4 evaluates a per-lane expression against an earlier sampled row.
func (m *lmach) evalAtVec4(fn laneVec4Fn, idx int) ([]uint64, []uint64) {
	sb, sub, sw, suw, si := m.bits, m.ubits, m.wide, m.uwide, m.idx
	m.bits, m.ubits = m.rows[idx].bits, m.urows[idx].bits
	m.wide, m.uwide, m.idx = m.rows[idx].wide, m.urows[idx].wide, idx
	v, u := fn(m)
	m.bits, m.ubits, m.wide, m.uwide, m.idx = sb, sub, sw, suw, si
	return v, u
}

// compileLaneBool4 is CompileLaneBool's four-state branch: trueMask selects
// lanes whose value is a known nonzero, xMask lanes that sampled x.
func (t *LaneTrace) compileLaneBool4(e verilog.Expr) CompiledLaneBool {
	le, ok := t.lp4.svaLane4[e]
	if !ok {
		return nil
	}
	if t.em == nil {
		t.em = traceLmach4(t.lp4, t.rows, t.urows)
	}
	m := t.em
	frame := func(cycle int) {
		m.bits, m.ubits = t.rows[cycle].bits, t.urows[cycle].bits
		m.wide, m.uwide = t.rows[cycle].wide, t.urows[cycle].wide
		m.idx, m.err = cycle, nil
	}
	if le.bit != nil {
		fn := le.bit
		return func(cycle int) (uint64, uint64, error) {
			frame(cycle)
			v, u := fn(m)
			return v, u &^ v, m.err
		}
	}
	fn := le.vec
	return func(cycle int) (uint64, uint64, error) {
		frame(cycle)
		vv, uu := fn(m)
		var tw, xw uint64
		for l := 0; l < 64; l++ {
			if vv[l] != 0 {
				tw |= 1 << uint(l)
			} else if uu[l] != 0 {
				xw |= 1 << uint(l)
			}
		}
		return tw, xw, m.err
	}
}

// ---------------------------------------------------------------------------
// Statement compilation
// ---------------------------------------------------------------------------

// laneCompiler4 lowers AST nodes into four-state lane closures, sharing the
// scalar compilers' constant folding and width analysis.
type laneCompiler4 struct {
	c  planCompiler
	c4 planCompiler4
	lp *lanePlan4
}

func (c *laneCompiler4) newReg() int {
	r := c.lp.nregs
	c.lp.nregs++
	return r
}

func (c *laneCompiler4) constReg(val, unk uint64) int {
	r := c.newReg()
	c.lp.consts = append(c.lp.consts, laneConst4{reg: r, val: val, unk: unk})
	return r
}

// asVec adapts any four-state lane expression to paired register form.
func (c *laneCompiler4) asVec(e lexpr4) laneVec4Fn {
	if e.vec != nil {
		return e.vec
	}
	bf := e.bit
	reg := c.newReg()
	return func(m *lmach) ([]uint64, []uint64) {
		v, u := bf(m)
		ov, ou := m.regs[reg], m.uregs[reg]
		for l := 0; l < 64; l++ {
			ov[l] = (v >> uint(l)) & 1
			ou[l] = (u >> uint(l)) & 1
		}
		return ov, ou
	}
}

// bool3 compiles three-valued truth masks: tw = lanes with a known nonzero
// value, xw = lanes whose truth is undetermined; false lanes are the rest.
func (c *laneCompiler4) bool3(e lexpr4) func(m *lmach) (tw, xw uint64) {
	if e.bit != nil {
		bf := e.bit
		// Canonical packed values: val bit set => true; else unk bit => x.
		return func(m *lmach) (uint64, uint64) {
			v, u := bf(m)
			return v, u &^ v
		}
	}
	vf := e.vec
	return func(m *lmach) (uint64, uint64) {
		vv, uu := vf(m)
		var tw, xw uint64
		for l := 0; l < 64; l++ {
			if vv[l] != 0 {
				tw |= 1 << uint(l)
			} else if uu[l] != 0 {
				xw |= 1 << uint(l)
			}
		}
		return tw, xw
	}
}

// lsb4 packs the per-lane least-significant bit pair.
func (c *laneCompiler4) lsb4(e lexpr4) laneBit4Fn {
	if e.bit != nil {
		return e.bit
	}
	vf := e.vec
	return func(m *lmach) (uint64, uint64) {
		vv, uu := vf(m)
		var v, u uint64
		for l := 0; l < 64; l++ {
			v |= (vv[l] & 1) << uint(l)
			u |= (uu[l] & 1) << uint(l)
		}
		return v, u
	}
}

func (c *laneCompiler4) compileStmt(s verilog.Stmt, seq bool) (laneStmtFn, error) {
	switch x := s.(type) {
	case nil:
		return func(*lmach) {}, nil
	case *verilog.Block:
		fns := make([]laneStmtFn, 0, len(x.Stmts))
		for _, sub := range x.Stmts {
			fn, err := c.compileStmt(sub, seq)
			if err != nil {
				return nil, err
			}
			fns = append(fns, fn)
		}
		return func(m *lmach) {
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
		return c.compileAssign(x.LHS, x.RHS, mode)
	case *verilog.NonBlocking:
		mode := wComb
		if seq {
			mode = wSeqNBA
		}
		return c.compileAssign(x.LHS, x.RHS, mode)
	case *verilog.If:
		ce, err := c.expr(x.Cond)
		if err != nil {
			return nil, err
		}
		cf := c.bool3(ce)
		then, err := c.compileStmt(x.Then, seq)
		if err != nil {
			return nil, err
		}
		var els laneStmtFn
		if x.Else != nil {
			els, err = c.compileStmt(x.Else, seq)
			if err != nil {
				return nil, err
			}
		}
		return func(m *lmach) {
			// An x condition takes the else branch, like the scalar engine
			// (IEEE 1364 §9.4: x is not true).
			tw, _ := cf(m)
			if m.err != nil {
				return
			}
			save := m.wm
			if w := save & tw; w != 0 {
				m.wm = w
				then(m)
				if m.err != nil {
					m.wm = save
					return
				}
			}
			if els != nil {
				if w := save &^ tw; w != 0 {
					m.wm = w
					els(m)
				}
			}
			m.wm = save
		}, nil
	case *verilog.Case:
		se, err := c.expr(x.Subject)
		if err != nil {
			return nil, err
		}
		sf := c.asVec(se)
		subjReg := c.newReg()
		type laneArm4 struct {
			labels []laneVec4Fn
			body   laneStmtFn
		}
		arms := make([]laneArm4, 0, len(x.Items))
		var deflt laneStmtFn
		for _, item := range x.Items {
			body, err := c.compileStmt(item.Body, seq)
			if err != nil {
				return nil, err
			}
			if item.Exprs == nil {
				deflt = body
				continue
			}
			labels := make([]laneVec4Fn, 0, len(item.Exprs))
			for _, le := range item.Exprs {
				lf, err := c.expr(le)
				if err != nil {
					return nil, err
				}
				labels = append(labels, c.asVec(lf))
			}
			arms = append(arms, laneArm4{labels: labels, body: body})
		}
		return func(m *lmach) {
			sv, su := sf(m)
			if m.err != nil {
				return
			}
			subjV, subjU := m.regs[subjReg], m.uregs[subjReg]
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
					// Labels match by case equality over both planes.
					var mw uint64
					for l := 0; l < 64; l++ {
						if subjV[l] == lv[l] && subjU[l] == lu[l] {
							mw |= 1 << uint(l)
						}
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
		}, nil
	}
	return nil, errUnplannable{fmt.Sprintf("statement %T (lanes, four-state)", s)}
}

func (c *laneCompiler4) compileAssign(lhs, rhs verilog.Expr, mode writeMode) (laneStmtFn, error) {
	re, err := c.expr(rhs)
	if err != nil {
		return nil, err
	}
	// Fast path: packed RHS stored whole into a single-bit signal.
	if id, ok := lhs.(*verilog.Ident); ok && re.bit != nil {
		if sig := c.c.d.Signals[id.Name]; sig != nil && sig.Width == 1 {
			slot := int32(sig.Slot)
			bf := re.bit
			switch mode {
			case wAssign:
				return func(m *lmach) {
					v, u := bf(m)
					nv := (m.bits[slot] &^ m.wm) | (v & m.wm)
					nu := (m.ubits[slot] &^ m.wm) | (u & m.wm)
					if nv != m.bits[slot] || nu != m.ubits[slot] {
						m.bits[slot] = nv
						m.ubits[slot] = nu
						m.changed = true
					}
				}, nil
			case wComb:
				return func(m *lmach) { v, u := bf(m); m.writeOvlBit4(slot, v, u) }, nil
			case wSeqBlocking:
				return func(m *lmach) {
					v, u := bf(m)
					m.writeOvlBit4(slot, v, u)
					m.writeNBABit4(slot, v, u)
				}, nil
			default: // wSeqNBA
				return func(m *lmach) { v, u := bf(m); m.writeNBABit4(slot, v, u) }, nil
			}
		}
	}
	vf := c.asVec(re)
	store, err := c.store(lhs, mode)
	if err != nil {
		return nil, err
	}
	return func(m *lmach) {
		vv, uu := vf(m)
		store(m, vv, uu)
	}, nil
}

func (c *laneCompiler4) store(lhs verilog.Expr, mode writeMode) (laneStore4Fn, error) {
	switch x := lhs.(type) {
	case *verilog.Ident:
		sig := c.c.d.Signals[x.Name]
		if sig == nil {
			return nil, errUnplannable{"assignment to unknown signal " + x.Name}
		}
		slot := int32(sig.Slot)
		mask := sig.Mask()
		if sig.Width == 1 {
			// maskV(1).norm() per lane, packed: unk wins over val.
			pack := func(vv, uu []uint64) (uint64, uint64) {
				var v, u uint64
				for l := 0; l < 64; l++ {
					ub := uu[l] & 1
					u |= ub << uint(l)
					v |= (vv[l] & 1 &^ ub) << uint(l)
				}
				return v, u
			}
			switch mode {
			case wAssign:
				return func(m *lmach, vv, uu []uint64) {
					v, u := pack(vv, uu)
					nv := (m.bits[slot] &^ m.wm) | (v & m.wm)
					nu := (m.ubits[slot] &^ m.wm) | (u & m.wm)
					if nv != m.bits[slot] || nu != m.ubits[slot] {
						m.bits[slot] = nv
						m.ubits[slot] = nu
						m.changed = true
					}
				}, nil
			case wComb:
				return func(m *lmach, vv, uu []uint64) {
					v, u := pack(vv, uu)
					m.writeOvlBit4(slot, v, u)
				}, nil
			case wSeqBlocking:
				return func(m *lmach, vv, uu []uint64) {
					v, u := pack(vv, uu)
					m.writeOvlBit4(slot, v, u)
					m.writeNBABit4(slot, v, u)
				}, nil
			default: // wSeqNBA
				return func(m *lmach, vv, uu []uint64) {
					v, u := pack(vv, uu)
					m.writeNBABit4(slot, v, u)
				}, nil
			}
		}
		norm := func(m *lmach, vv, uu []uint64, reg int) ([]uint64, []uint64) {
			mv, mu := m.regs[reg], m.uregs[reg]
			for l := 0; l < 64; l++ {
				mu[l] = uu[l] & mask
				mv[l] = vv[l] & mask &^ mu[l]
			}
			return mv, mu
		}
		switch mode {
		case wAssign:
			return func(m *lmach, vv, uu []uint64) {
				dv, du := m.wide[slot], m.uwide[slot]
				for l := 0; l < 64; l++ {
					if m.wm>>uint(l)&1 == 1 {
						nu := uu[l] & mask
						nv := vv[l] & mask &^ nu
						if dv[l] != nv || du[l] != nu {
							dv[l] = nv
							du[l] = nu
							m.changed = true
						}
					}
				}
			}, nil
		case wComb:
			reg := c.newReg()
			return func(m *lmach, vv, uu []uint64) {
				mv, mu := norm(m, vv, uu, reg)
				m.writeOvlVec4(slot, mv, mu)
			}, nil
		case wSeqBlocking:
			reg := c.newReg()
			return func(m *lmach, vv, uu []uint64) {
				mv, mu := norm(m, vv, uu, reg)
				m.writeOvlVec4(slot, mv, mu)
				m.writeNBAVec4(slot, mv, mu)
			}, nil
		default: // wSeqNBA
			reg := c.newReg()
			return func(m *lmach, vv, uu []uint64) {
				mv, mu := norm(m, vv, uu, reg)
				m.writeNBAVec4(slot, mv, mu)
			}, nil
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
		ie, err := c.expr(x.Idx)
		if err != nil {
			return nil, err
		}
		idxFn := c.asVec(ie)
		base := c.rmwBase(int32(sig.Slot), mode)
		inner, err := c.store(id, mode)
		if err != nil {
			return nil, err
		}
		reg := c.newReg()
		return func(m *lmach, vv, uu []uint64) {
			iv, iu := idxFn(m)
			if m.err != nil {
				return
			}
			bv, bu := base(m)
			ov, ou := m.regs[reg], m.uregs[reg]
			// Lanes with an unknown index skip the write entirely (the
			// scalar engine's no-effect rule), via the predication mask.
			var knownW uint64
			for l := 0; l < 64; l++ {
				if iu[l] != 0 {
					continue
				}
				knownW |= 1 << uint(l)
				sh := iv[l] & 63
				bit := uint64(1) << sh
				ov[l] = (bv[l] &^ bit) | ((vv[l] & 1) << sh)
				ou[l] = (bu[l] &^ bit) | ((uu[l] & 1) << sh)
			}
			save := m.wm
			if w := save & knownW; w != 0 {
				m.wm = w
				inner(m, ov, ou)
			}
			m.wm = save
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
		hi, ok1 := c.c4.constEval4(x.Hi)
		lo, ok2 := c.c4.constEval4(x.Lo)
		if !ok1 || !ok2 {
			return nil, errUnplannable{"dynamic slice bounds in assignment target"}
		}
		if lo > hi {
			return nil, errUnplannable{"invalid slice target"}
		}
		base := c.rmwBase(int32(sig.Slot), mode)
		inner, err := c.store(id, mode)
		if err != nil {
			return nil, err
		}
		sm := maskFor(int(hi-lo)+1) << lo
		shift := uint(lo)
		reg := c.newReg()
		return func(m *lmach, vv, uu []uint64) {
			bv, bu := base(m)
			ov, ou := m.regs[reg], m.uregs[reg]
			for l := 0; l < 64; l++ {
				ov[l] = (bv[l] &^ sm) | ((vv[l] << shift) & sm)
				ou[l] = (bu[l] &^ sm) | ((uu[l] << shift) & sm)
			}
			inner(m, ov, ou)
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
		stores := make([]laneStore4Fn, len(x.Elems))
		shifts := make([]uint, len(x.Elems))
		elMasks := make([]uint64, len(x.Elems))
		regs := make([]int, len(x.Elems))
		shift := total
		for i, el := range x.Elems {
			shift -= widths[i]
			st, err := c.store(el, mode)
			if err != nil {
				return nil, err
			}
			stores[i] = st
			shifts[i] = uint(shift)
			elMasks[i] = maskFor(widths[i])
			regs[i] = c.newReg()
		}
		return func(m *lmach, vv, uu []uint64) {
			for i, st := range stores {
				ov, ou := m.regs[regs[i]], m.uregs[regs[i]]
				for l := 0; l < 64; l++ {
					ov[l] = (vv[l] >> shifts[i]) & elMasks[i]
					ou[l] = (uu[l] >> shifts[i]) & elMasks[i]
				}
				st(m, ov, ou)
				if m.err != nil {
					return
				}
			}
		}, nil
	}
	return nil, errUnplannable{fmt.Sprintf("assignment target %T (lanes, four-state)", lhs)}
}

// rmwBase returns the per-lane paired base planes for read-modify-write
// targets, mirroring planCompiler4.rmwBase4.
func (c *laneCompiler4) rmwBase(slot int32, mode writeMode) func(m *lmach) ([]uint64, []uint64) {
	isBit := c.lp.isBit[slot]
	expand := func(reg int, readW func(m *lmach) (uint64, uint64)) func(m *lmach) ([]uint64, []uint64) {
		return func(m *lmach) ([]uint64, []uint64) {
			v, u := readW(m)
			ov, ou := m.regs[reg], m.uregs[reg]
			for l := 0; l < 64; l++ {
				ov[l] = (v >> uint(l)) & 1
				ou[l] = (u >> uint(l)) & 1
			}
			return ov, ou
		}
	}
	switch mode {
	case wAssign:
		if isBit {
			return expand(c.newReg(), func(m *lmach) (uint64, uint64) { return m.bits[slot], m.ubits[slot] })
		}
		return func(m *lmach) ([]uint64, []uint64) { return m.wide[slot], m.uwide[slot] }
	case wSeqNBA:
		if isBit {
			return expand(c.newReg(), func(m *lmach) (uint64, uint64) {
				v, u := m.readBit4(slot)
				if m.nbaGen[slot] == m.ngen {
					wm := m.nbaWm[slot]
					v = (m.nbaBits[slot] & wm) | (v &^ wm)
					u = (m.nbaUBits[slot] & wm) | (u &^ wm)
				}
				return v, u
			})
		}
		reg := c.newReg()
		return func(m *lmach) ([]uint64, []uint64) {
			rv, ru := m.readVec4(slot)
			if m.nbaGen[slot] != m.ngen {
				return rv, ru
			}
			nv, nu, wmBits := m.nbaWide[slot], m.nbaUWide[slot], m.nbaWm[slot]
			ov, ou := m.regs[reg], m.uregs[reg]
			for l := 0; l < 64; l++ {
				if wmBits>>uint(l)&1 == 1 {
					ov[l] = nv[l]
					ou[l] = nu[l]
				} else {
					ov[l] = rv[l]
					ou[l] = ru[l]
				}
			}
			return ov, ou
		}
	default: // wComb, wSeqBlocking
		if isBit {
			return expand(c.newReg(), func(m *lmach) (uint64, uint64) { return m.readBit4(slot) })
		}
		return func(m *lmach) ([]uint64, []uint64) { return m.readVec4(slot) }
	}
}

// ---------------------------------------------------------------------------
// Expression compilation
// ---------------------------------------------------------------------------

func (c *laneCompiler4) expr(e verilog.Expr) (lexpr4, error) {
	switch x := e.(type) {
	case *verilog.Number:
		v := V4{Val: x.Value, Unk: x.Unknown()}.norm()
		return c.constExpr(v), nil
	case *verilog.Ident:
		if sig := c.c.d.Signals[x.Name]; sig != nil {
			slot := int32(sig.Slot)
			if sig.Width == 1 {
				return lexpr4{bit: func(m *lmach) (uint64, uint64) { return m.readBit4(slot) }}, nil
			}
			return lexpr4{vec: func(m *lmach) ([]uint64, []uint64) { return m.readVec4(slot) }}, nil
		}
		if v, ok := c.c.d.Params[x.Name]; ok {
			return c.constExpr(known(v)), nil
		}
		return lexpr4{}, errUnplannable{"unknown signal " + x.Name}
	case *verilog.Unary:
		return c.unary(x)
	case *verilog.Binary:
		return c.binary(x)
	case *verilog.Ternary:
		ce, err := c.expr(x.Cond)
		if err != nil {
			return lexpr4{}, err
		}
		cf := c.bool3(ce)
		xe, err := c.expr(x.X)
		if err != nil {
			return lexpr4{}, err
		}
		ye, err := c.expr(x.Y)
		if err != nil {
			return lexpr4{}, err
		}
		if xe.bit != nil && ye.bit != nil {
			xf, yf := xe.bit, ye.bit
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				ct, cx := cf(m)
				if ct == ^uint64(0) {
					return xf(m)
				}
				if ct|cx == 0 {
					return yf(m)
				}
				xv, xu := xf(m)
				yv, yu := yf(m)
				cfalse := ^(ct | cx)
				// x-selected lanes merge the arms (v4Merge, word-wide).
				mu := xu | yu | (xv ^ yv)
				mv := xv & yv &^ mu
				v := (ct & xv) | (cfalse & yv) | (cx & mv)
				u := (ct & xu) | (cfalse & yu) | (cx & mu)
				return v, u
			}}, nil
		}
		xf, yf := c.asVec(xe), c.asVec(ye)
		reg := c.newReg()
		return lexpr4{vec: func(m *lmach) ([]uint64, []uint64) {
			ct, cx := cf(m)
			if ct == ^uint64(0) {
				return xf(m)
			}
			if ct|cx == 0 {
				return yf(m)
			}
			xv, xu := xf(m)
			yv, yu := yf(m)
			ov, ou := m.regs[reg], m.uregs[reg]
			for l := 0; l < 64; l++ {
				switch {
				case ct>>uint(l)&1 == 1:
					ov[l], ou[l] = xv[l], xu[l]
				case cx>>uint(l)&1 == 0:
					ov[l], ou[l] = yv[l], yu[l]
				default:
					mv := v4Merge(V4{Val: xv[l], Unk: xu[l]}, V4{Val: yv[l], Unk: yu[l]})
					ov[l], ou[l] = mv.Val, mv.Unk
				}
			}
			return ov, ou
		}}, nil
	case *verilog.Index:
		xe, err := c.expr(x.X)
		if err != nil {
			return lexpr4{}, err
		}
		ie, err := c.expr(x.Idx)
		if err != nil {
			return lexpr4{}, err
		}
		xf, idxFn := c.asVec(xe), c.asVec(ie)
		return lexpr4{bit: func(m *lmach) (uint64, uint64) {
			// Base before index, matching the interpreter's order.
			vv, uu := xf(m)
			iv, iu := idxFn(m)
			var v, u uint64
			for l := 0; l < 64; l++ {
				if iu[l] != 0 {
					u |= 1 << uint(l) // unknown index: xBool
					continue
				}
				if idx := iv[l]; idx < 64 {
					v |= ((vv[l] >> idx) & 1) << uint(l)
					u |= ((uu[l] >> idx) & 1) << uint(l)
				}
			}
			return v &^ u, u
		}}, nil
	case *verilog.Slice:
		xe, err := c.expr(x.X)
		if err != nil {
			return lexpr4{}, err
		}
		hi, ok1 := c.c4.constEval4(x.Hi)
		lo, ok2 := c.c4.constEval4(x.Lo)
		if !ok1 || !ok2 {
			return lexpr4{}, errUnplannable{"dynamic slice bounds"}
		}
		if lo > hi || lo >= 64 {
			pos := x.Pos
			hiC, loC := hi, lo
			reg := c.constReg(0, 0)
			return lexpr4{vec: func(m *lmach) ([]uint64, []uint64) {
				m.fail(evalErrf(pos, "invalid slice [%d:%d]", hiC, loC))
				return m.regs[reg], m.uregs[reg]
			}}, nil
		}
		xf := c.asVec(xe)
		shift := uint(lo)
		mask := maskFor(int(hi-lo) + 1)
		if mask == 1 {
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				vv, uu := xf(m)
				var v, u uint64
				for l := 0; l < 64; l++ {
					v |= ((vv[l] >> shift) & 1) << uint(l)
					u |= ((uu[l] >> shift) & 1) << uint(l)
				}
				return v, u
			}}, nil
		}
		reg := c.newReg()
		return lexpr4{vec: func(m *lmach) ([]uint64, []uint64) {
			vv, uu := xf(m)
			ov, ou := m.regs[reg], m.uregs[reg]
			for l := 0; l < 64; l++ {
				ov[l] = (vv[l] >> shift) & mask
				ou[l] = (uu[l] >> shift) & mask
			}
			return ov, ou
		}}, nil
	case *verilog.Concat:
		fns := make([]laneVec4Fn, len(x.Elems))
		widths := make([]uint, len(x.Elems))
		elMasks := make([]uint64, len(x.Elems))
		for i, el := range x.Elems {
			w, ok := c.c.staticWidth(el)
			if !ok {
				return lexpr4{}, errUnplannable{"dynamic width in concat"}
			}
			fe, err := c.expr(el)
			if err != nil {
				return lexpr4{}, err
			}
			fns[i] = c.asVec(fe)
			widths[i] = uint(w)
			elMasks[i] = maskFor(w)
		}
		reg := c.newReg()
		return lexpr4{vec: func(m *lmach) ([]uint64, []uint64) {
			ov, ou := m.regs[reg], m.uregs[reg]
			for l := 0; l < 64; l++ {
				ov[l], ou[l] = 0, 0
			}
			for i, fn := range fns {
				vv, uu := fn(m)
				for l := 0; l < 64; l++ {
					ov[l] = (ov[l] << widths[i]) | (vv[l] & elMasks[i])
					ou[l] = (ou[l] << widths[i]) | (uu[l] & elMasks[i])
				}
			}
			return ov, ou
		}}, nil
	case *verilog.Repl:
		n, ok := c.c4.constEval4(x.Count)
		if !ok {
			return lexpr4{}, errUnplannable{"dynamic replication count"}
		}
		w, ok := c.c.staticWidth(x.Elem)
		if !ok {
			return lexpr4{}, errUnplannable{"dynamic width in replication"}
		}
		fe, err := c.expr(x.Elem)
		if err != nil {
			return lexpr4{}, err
		}
		fn := c.asVec(fe)
		mask := maskFor(w)
		uw := uint(w)
		if n > 64 {
			n = 64 // matches the interpreter's i < 64 bound
		}
		reps := int(n)
		reg := c.newReg()
		return lexpr4{vec: func(m *lmach) ([]uint64, []uint64) {
			vv, uu := fn(m)
			ov, ou := m.regs[reg], m.uregs[reg]
			for l := 0; l < 64; l++ {
				ev, eu := vv[l]&mask, uu[l]&mask
				var o, q uint64
				for i := 0; i < reps; i++ {
					o = (o << uw) | ev
					q = (q << uw) | eu
				}
				ov[l], ou[l] = o, q
			}
			return ov, ou
		}}, nil
	case *verilog.Call:
		return c.call(x)
	}
	return lexpr4{}, errUnplannable{fmt.Sprintf("expression %T (lanes, four-state)", e)}
}

func (c *laneCompiler4) constExpr(v V4) lexpr4 {
	if v.Val|v.Unk <= 1 {
		var vw, uw uint64
		if v.Val == 1 {
			vw = ^uint64(0)
		}
		if v.Unk == 1 {
			uw = ^uint64(0)
		}
		return lexpr4{bit: func(*lmach) (uint64, uint64) { return vw, uw }}
	}
	reg := c.constReg(v.Val, v.Unk)
	return lexpr4{vec: func(m *lmach) ([]uint64, []uint64) { return m.regs[reg], m.uregs[reg] }}
}

func (c *laneCompiler4) unary(x *verilog.Unary) (lexpr4, error) {
	xe, err := c.expr(x.X)
	if err != nil {
		return lexpr4{}, err
	}
	w, ok := c.c.staticWidth(x.X)
	if !ok {
		return lexpr4{}, errUnplannable{"dynamic operand width"}
	}
	mask := maskFor(w)
	if xe.bit != nil && mask == 1 {
		bf := xe.bit
		switch x.Op {
		case verilog.UnaryLogicalNot, verilog.UnaryBitNot, verilog.UnaryRedXnor:
			// All equal v4Not on a single bit: known flips, x stays x.
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				v, u := bf(m)
				return ^(v | u), u
			}}, nil
		case verilog.UnaryMinus, verilog.UnaryPlus, verilog.UnaryRedAnd,
			verilog.UnaryRedOr, verilog.UnaryRedXor:
			// Identities on a canonical single bit (x stays x, -v&1 == v).
			return lexpr4{bit: bf}, nil
		}
	}
	vf := c.asVec(xe)
	perLane := func(op func(v V4) V4) lexpr4 {
		reg := c.newReg()
		return lexpr4{vec: func(m *lmach) ([]uint64, []uint64) {
			vv, uu := vf(m)
			ov, ou := m.regs[reg], m.uregs[reg]
			for l := 0; l < 64; l++ {
				r := op(V4{Val: vv[l], Unk: uu[l]})
				ov[l], ou[l] = r.Val, r.Unk
			}
			return ov, ou
		}}
	}
	switch x.Op {
	case verilog.UnaryLogicalNot:
		return perLane(func(v V4) V4 { return v4LogNot(v.maskV(mask)) }), nil
	case verilog.UnaryBitNot:
		return perLane(func(v V4) V4 { return v4Not(v, mask) }), nil
	case verilog.UnaryMinus:
		return perLane(func(v V4) V4 {
			v = v.maskV(mask)
			if v.Unk != 0 {
				return V4{Unk: mask}
			}
			return known(-v.Val & mask)
		}), nil
	case verilog.UnaryPlus:
		return perLane(func(v V4) V4 { return v.maskV(mask) }), nil
	case verilog.UnaryRedAnd:
		return perLane(func(v V4) V4 { return v4RedAnd(v, mask) }), nil
	case verilog.UnaryRedOr:
		return perLane(func(v V4) V4 { return v4RedOr(v, mask) }), nil
	case verilog.UnaryRedXor:
		return perLane(func(v V4) V4 { return v4RedXor(v, mask) }), nil
	case verilog.UnaryRedXnor:
		return perLane(func(v V4) V4 { return v4Not(v4RedXor(v, mask), 1) }), nil
	}
	return lexpr4{}, errUnplannable{"unary operator " + x.Op.String()}
}

func (c *laneCompiler4) binary(x *verilog.Binary) (lexpr4, error) {
	ae, err := c.expr(x.X)
	if err != nil {
		return lexpr4{}, err
	}
	be, err := c.expr(x.Y)
	if err != nil {
		return lexpr4{}, err
	}
	bothBit := ae.bit != nil && be.bit != nil
	switch x.Op {
	case verilog.BinLogAnd:
		af, bf := c.bool3(ae), c.bool3(be)
		return lexpr4{bit: func(m *lmach) (uint64, uint64) {
			ta, xa := af(m)
			if ta|xa == 0 {
				return 0, 0 // every lane's left operand is false
			}
			tb, xb := bf(m)
			v := ta & tb
			falseW := ^(ta | xa) | ^(tb | xb)
			return v, ^(v | falseW)
		}}, nil
	case verilog.BinLogOr:
		af, bf := c.bool3(ae), c.bool3(be)
		return lexpr4{bit: func(m *lmach) (uint64, uint64) {
			ta, xa := af(m)
			if ta == ^uint64(0) {
				return ta, 0
			}
			tb, xb := bf(m)
			v := ta | tb
			falseW := ^(ta | xa) & ^(tb | xb)
			return v, ^(v | falseW)
		}}, nil
	case verilog.BinAnd:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				av, au := af(m)
				bv, bu := bf(m)
				// v4And word-wide: 0 & x = 0 absorption.
				known0 := (^av & ^au) | (^bv & ^bu)
				unk := (au | bu) &^ known0
				return av & bv &^ unk, unk
			}}, nil
		}
		return c.vecBin4(ae, be, v4And), nil
	case verilog.BinOr:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				av, au := af(m)
				bv, bu := bf(m)
				known1 := av | bv
				return known1, (au | bu) &^ known1
			}}, nil
		}
		return c.vecBin4(ae, be, v4Or), nil
	case verilog.BinXor:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				av, au := af(m)
				bv, bu := bf(m)
				unk := au | bu
				return (av ^ bv) &^ unk, unk
			}}, nil
		}
		return c.vecBin4(ae, be, v4Xor), nil
	case verilog.BinXnor:
		wx, ok1 := c.c.staticWidth(x.X)
		wy, ok2 := c.c.staticWidth(x.Y)
		if !ok1 || !ok2 {
			return lexpr4{}, errUnplannable{"dynamic operand width"}
		}
		mask := maskFor(max(wx, wy))
		if bothBit && mask == 1 {
			af, bf := ae.bit, be.bit
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				av, au := af(m)
				bv, bu := bf(m)
				unk := au | bu
				return ^(av ^ bv) &^ unk, unk
			}}, nil
		}
		return c.vecBin4(ae, be, func(a, b V4) V4 { return v4Not(v4Xor(a, b), mask) }), nil
	case verilog.BinEq:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				av, au := af(m)
				bv, bu := bf(m)
				unk := au | bu
				return ^(av ^ bv) &^ unk, unk
			}}, nil
		}
		return c.packedCmp4(ae, be, v4Eq), nil
	case verilog.BinNe:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				av, au := af(m)
				bv, bu := bf(m)
				unk := au | bu
				return (av ^ bv) &^ unk, unk
			}}, nil
		}
		return c.packedCmp4(ae, be, func(a, b V4) V4 { return v4LogNot(v4Eq(a, b)) }), nil
	case verilog.BinCaseEq:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				av, au := af(m)
				bv, bu := bf(m)
				return ^(av ^ bv) & ^(au ^ bu), 0
			}}, nil
		}
		return c.packedCmp4(ae, be, v4CaseEq), nil
	case verilog.BinCaseNe:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				av, au := af(m)
				bv, bu := bf(m)
				return (av ^ bv) | (au ^ bu), 0
			}}, nil
		}
		return c.packedCmp4(ae, be, func(a, b V4) V4 { return v4LogNot(v4CaseEq(a, b)) }), nil
	case verilog.BinLt:
		return c.relBin4(ae, be, bothBit, func(av, bv uint64) uint64 { return ^av & bv },
			func(p, q uint64) bool { return p < q }), nil
	case verilog.BinLe:
		return c.relBin4(ae, be, bothBit, func(av, bv uint64) uint64 { return ^av | bv },
			func(p, q uint64) bool { return p <= q }), nil
	case verilog.BinGt:
		return c.relBin4(ae, be, bothBit, func(av, bv uint64) uint64 { return av & ^bv },
			func(p, q uint64) bool { return p > q }), nil
	case verilog.BinGe:
		return c.relBin4(ae, be, bothBit, func(av, bv uint64) uint64 { return av | ^bv },
			func(p, q uint64) bool { return p >= q }), nil
	case verilog.BinAdd:
		return c.vecBin4(ae, be, func(a, b V4) V4 {
			return v4Arith(a, b, func(p, q uint64) uint64 { return p + q })
		}), nil
	case verilog.BinSub:
		return c.vecBin4(ae, be, func(a, b V4) V4 {
			return v4Arith(a, b, func(p, q uint64) uint64 { return p - q })
		}), nil
	case verilog.BinMul:
		return c.vecBin4(ae, be, func(a, b V4) V4 {
			return v4Arith(a, b, func(p, q uint64) uint64 { return p * q })
		}), nil
	case verilog.BinDiv:
		return c.vecBin4(ae, be, v4Div), nil
	case verilog.BinMod:
		return c.vecBin4(ae, be, v4Mod), nil
	case verilog.BinShl:
		return c.vecBin4(ae, be, v4Shl), nil
	case verilog.BinShr:
		return c.vecBin4(ae, be, v4Shr), nil
	case verilog.BinAShr:
		w, ok := c.c.staticWidth(x.X)
		if !ok {
			return lexpr4{}, errUnplannable{"dynamic operand width"}
		}
		return c.vecBin4(ae, be, func(a, b V4) V4 { return v4AShr(a, b, w) }), nil
	}
	return lexpr4{}, errUnplannable{"binary operator " + x.Op.String()}
}

// vecBin4 lowers a binary operator to a per-lane loop over the shared V4
// operator function.
func (c *laneCompiler4) vecBin4(ae, be lexpr4, op func(a, b V4) V4) lexpr4 {
	af, bf := c.asVec(ae), c.asVec(be)
	reg := c.newReg()
	return lexpr4{vec: func(m *lmach) ([]uint64, []uint64) {
		av, au := af(m)
		bv, bu := bf(m)
		ov, ou := m.regs[reg], m.uregs[reg]
		for l := 0; l < 64; l++ {
			r := op(V4{Val: av[l], Unk: au[l]}, V4{Val: bv[l], Unk: bu[l]})
			ov[l], ou[l] = r.Val, r.Unk
		}
		return ov, ou
	}}
}

// packedCmp4 lowers a single-bit-result operator to per-lane evaluation
// packed into a word pair.
func (c *laneCompiler4) packedCmp4(ae, be lexpr4, op func(a, b V4) V4) lexpr4 {
	af, bf := c.asVec(ae), c.asVec(be)
	return lexpr4{bit: func(m *lmach) (uint64, uint64) {
		av, au := af(m)
		bv, bu := bf(m)
		var v, u uint64
		for l := 0; l < 64; l++ {
			r := op(V4{Val: av[l], Unk: au[l]}, V4{Val: bv[l], Unk: bu[l]})
			v |= (r.Val & 1) << uint(l)
			u |= (r.Unk & 1) << uint(l)
		}
		return v, u
	}}
}

// relBin4 lowers a relational operator: a word kernel for single-bit
// operands (x if either is x), a per-lane v4RelArith loop otherwise.
func (c *laneCompiler4) relBin4(ae, be lexpr4, bothBit bool, kernel func(av, bv uint64) uint64, op func(p, q uint64) bool) lexpr4 {
	if bothBit {
		af, bf := ae.bit, be.bit
		return lexpr4{bit: func(m *lmach) (uint64, uint64) {
			av, au := af(m)
			bv, bu := bf(m)
			unk := au | bu
			return kernel(av, bv) &^ unk, unk
		}}
	}
	return c.packedCmp4(ae, be, func(a, b V4) V4 { return v4RelArith(a, b, op) })
}

func (c *laneCompiler4) call(x *verilog.Call) (lexpr4, error) {
	if len(x.Args) == 0 {
		return lexpr4{}, errUnplannable{x.Name + " without arguments"}
	}
	arg := x.Args[0]
	switch x.Name {
	case "$countones", "$onehot", "$onehot0", "$isunknown":
		fe, err := c.expr(arg)
		if err != nil {
			return lexpr4{}, err
		}
		w, ok := c.c.staticWidth(arg)
		if !ok {
			return lexpr4{}, errUnplannable{"dynamic operand width"}
		}
		mask := maskFor(w)
		vf := c.asVec(fe)
		switch x.Name {
		case "$countones":
			reg := c.newReg()
			return lexpr4{vec: func(m *lmach) ([]uint64, []uint64) {
				vv, uu := vf(m)
				ov, ou := m.regs[reg], m.uregs[reg]
				for l := 0; l < 64; l++ {
					if uu[l]&mask != 0 {
						ov[l], ou[l] = 0, ^uint64(0)
						continue
					}
					ov[l], ou[l] = uint64(bits.OnesCount64(vv[l]&mask)), 0
				}
				return ov, ou
			}}, nil
		case "$onehot", "$onehot0":
			limit := 1
			exact := x.Name == "$onehot"
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				vv, uu := vf(m)
				var v, u uint64
				for l := 0; l < 64; l++ {
					if uu[l]&mask != 0 {
						u |= 1 << uint(l)
						continue
					}
					n := bits.OnesCount64(vv[l] & mask)
					if (exact && n == limit) || (!exact && n <= limit) {
						v |= 1 << uint(l)
					}
				}
				return v, u
			}}, nil
		default: // $isunknown
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				vv, uu := vf(m)
				_ = vv
				var v uint64
				for l := 0; l < 64; l++ {
					if uu[l]&mask != 0 {
						v |= 1 << uint(l)
					}
				}
				return v, 0
			}}, nil
		}
	case "$signed", "$unsigned":
		return c.expr(arg)
	case "$past":
		fe, err := c.expr(arg)
		if err != nil {
			return lexpr4{}, err
		}
		pos := x.Pos
		depth := uint64(1)
		if len(x.Args) > 1 {
			// Only compile-time constant depths lane (the sampled frame swap
			// is whole-machine); others fall back per-expression.
			d, ok := c.c4.constEval4(x.Args[1])
			if !ok {
				return lexpr4{}, errUnplannable{"non-constant $past depth (lanes)"}
			}
			depth = d
		}
		if depth == 0 || depth > maxPastDepth {
			dc := depth
			reg := c.constReg(0, 0)
			return lexpr4{vec: func(m *lmach) ([]uint64, []uint64) {
				m.fail(evalErrf(pos, "$past depth %d out of range [1, %d]", dc, uint64(maxPastDepth)))
				return m.regs[reg], m.uregs[reg]
			}}, nil
		}
		d := int(depth)
		if fe.bit != nil {
			bf := fe.bit
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				if m.rows == nil {
					m.fail(evalErrf(pos, "$past outside sampled context"))
					return 0, 0
				}
				j := m.idx - d
				if j < 0 {
					return 0, 0 // before start of time: sampled default (0)
				}
				return m.evalAtBit4(bf, j)
			}}, nil
		}
		vf := fe.vec
		zreg := c.constReg(0, 0)
		return lexpr4{vec: func(m *lmach) ([]uint64, []uint64) {
			if m.rows == nil {
				m.fail(evalErrf(pos, "$past outside sampled context"))
				return m.regs[zreg], m.uregs[zreg]
			}
			j := m.idx - d
			if j < 0 {
				return m.regs[zreg], m.uregs[zreg]
			}
			return m.evalAtVec4(vf, j)
		}}, nil
	case "$rose", "$fell", "$stable", "$changed":
		fe, err := c.expr(arg)
		if err != nil {
			return lexpr4{}, err
		}
		pos := x.Pos
		name := x.Name
		if name == "$rose" || name == "$fell" {
			bf := c.lsb4(fe)
			rose := name == "$rose"
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				if m.rows == nil {
					m.fail(evalErrf(pos, "%s outside sampled context", name))
					return 0, 0
				}
				nv, nu := bf(m)
				var bv, bu uint64
				if m.idx > 0 {
					bv, bu = m.evalAtBit4(bf, m.idx-1)
				}
				unk := bu | nu // any x in either sample: xBool (v4Sampled)
				var v uint64
				if rose {
					v = ^bv & nv
				} else {
					v = bv & ^nv
				}
				return v &^ unk, unk
			}}, nil
		}
		stable := name == "$stable"
		if fe.bit != nil {
			bf := fe.bit
			return lexpr4{bit: func(m *lmach) (uint64, uint64) {
				if m.rows == nil {
					m.fail(evalErrf(pos, "%s outside sampled context", name))
					return 0, 0
				}
				nv, nu := bf(m)
				var bv, bu uint64
				if m.idx > 0 {
					bv, bu = m.evalAtBit4(bf, m.idx-1)
				}
				unk := bu | nu
				v := ^(bv ^ nv)
				if !stable {
					v = bv ^ nv
				}
				return v &^ unk, unk
			}}, nil
		}
		vf := fe.vec
		return lexpr4{bit: func(m *lmach) (uint64, uint64) {
			if m.rows == nil {
				m.fail(evalErrf(pos, "%s outside sampled context", name))
				return 0, 0
			}
			nv, nu := vf(m)
			var v, u uint64
			if m.idx > 0 {
				// Copy the now-frame first: the past evaluation reuses the
				// same registers.
				nvc := make([]uint64, 64)
				nuc := make([]uint64, 64)
				copy(nvc, nv)
				copy(nuc, nu)
				bv, bu := m.evalAtVec4(vf, m.idx-1)
				for l := 0; l < 64; l++ {
					if nuc[l]|bu[l] != 0 {
						u |= 1 << uint(l)
						continue
					}
					if (bv[l] == nvc[l]) == stable {
						v |= 1 << uint(l)
					}
				}
				return v, u
			}
			for l := 0; l < 64; l++ {
				if nu[l] != 0 {
					u |= 1 << uint(l)
					continue
				}
				if (nv[l] == 0) == stable {
					v |= 1 << uint(l)
				}
			}
			return v, u
		}}, nil
	}
	return lexpr4{}, errUnplannable{"system function " + x.Name + " (lanes, four-state)"}
}
