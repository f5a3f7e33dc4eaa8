package fuzz

import (
	"fmt"
	"math/rand"

	"repro/internal/verilog"
)

// This file is the unconstrained program generator behind the differential
// fuzzer. Where corpus.Generator samples the *parameters* of hand-written
// family archetypes, this generator synthesises whole modules from the
// grammar: random declaration mixes, random always/assign nests, random
// expression trees over every operator the front end accepts, and random
// SVA properties over the resulting signals. Programs are levelised by
// construction (a combinational signal only reads strictly earlier
// combinational signals, inputs and sequential state), so every generated
// module is acyclic and the engines cannot reject it for a combinational
// loop; width limits and masked literals keep it inside the 64-bit
// simulator subset. The same seed always yields the same module.

// sigRef is one readable signal during generation.
type sigRef struct {
	name  string
	width int
}

type genCtx struct {
	rng *rand.Rand

	hasReset bool
	params   []sigRef // localparams with known constant values
	paramVal map[string]uint64

	readable []sigRef // grows as levels are added
}

// GenerateModule synthesises one random module from the rng stream.
func GenerateModule(rng *rand.Rand) *verilog.Module {
	g := &genCtx{rng: rng, paramVal: map[string]uint64{}}
	m := &verilog.Module{Name: "fz"}

	// Clock, optional reset, data inputs.
	m.Ports = append(m.Ports, &verilog.Port{Dir: verilog.DirInput, Name: "clk"})
	g.hasReset = rng.Intn(10) < 7
	if g.hasReset {
		m.Ports = append(m.Ports, &verilog.Port{Dir: verilog.DirInput, Name: "rst_n"})
	}
	nIn := 1 + rng.Intn(3)
	var inputs []sigRef
	for i := 0; i < nIn; i++ {
		w := g.inputWidth()
		s := sigRef{name: fmt.Sprintf("in%d", i), width: w}
		inputs = append(inputs, s)
		m.Ports = append(m.Ports, &verilog.Port{Dir: verilog.DirInput, Range: rangeFor(w), Name: s.name})
	}
	g.readable = append(g.readable, inputs...)

	// Occasional localparam, usable as an expression operand or slice bound.
	if rng.Intn(3) == 0 {
		v := uint64(1 + rng.Intn(7))
		p := sigRef{name: "P", width: 32}
		g.params = append(g.params, p)
		g.paramVal[p.name] = v
		m.Items = append(m.Items, &verilog.ParamDecl{
			IsLocal: rng.Intn(2) == 0,
			Name:    p.name,
			Value:   &verilog.Number{Value: v},
		})
	}

	// Sequential registers: state readable from any level.
	nSeq := 1 + rng.Intn(3)
	var seqRegs []sigRef
	for i := 0; i < nSeq; i++ {
		w := g.sigWidth()
		s := sigRef{name: fmt.Sprintf("r%d", i), width: w}
		seqRegs = append(seqRegs, s)
		m.Items = append(m.Items, &verilog.NetDecl{Kind: verilog.NetReg, Range: rangeFor(w), Names: []string{s.name}})
	}
	g.readable = append(g.readable, seqRegs...)

	// Optional constant initialisation for one register.
	if rng.Intn(4) == 0 {
		r := seqRegs[rng.Intn(len(seqRegs))]
		m.Items = append(m.Items, &verilog.Initial{Body: &verilog.Blocking{
			LHS: ident(r.name),
			RHS: g.number(r.width),
		}})
	}

	// Wires, each a new combinational level.
	nWire := rng.Intn(4)
	var wires []sigRef
	for i := 0; i < nWire; i++ {
		w := g.sigWidth()
		s := sigRef{name: fmt.Sprintf("w%d", i), width: w}
		wires = append(wires, s)
		if rng.Intn(4) == 0 {
			// wire w = expr form (continuous assignment via initialiser).
			m.Items = append(m.Items, &verilog.NetDecl{
				Kind: verilog.NetWire, Range: rangeFor(w), Names: []string{s.name},
				Init: g.expr(3),
			})
		} else {
			m.Items = append(m.Items, &verilog.NetDecl{Kind: verilog.NetWire, Range: rangeFor(w), Names: []string{s.name}})
			m.Items = append(m.Items, &verilog.AssignItem{LHS: ident(s.name), RHS: g.expr(3)})
		}
		g.readable = append(g.readable, s)
	}

	// Combinational always blocks, each writing its own fresh registers.
	nComb := rng.Intn(3)
	for i := 0; i < nComb; i++ {
		w := g.sigWidth()
		s := sigRef{name: fmt.Sprintf("c%d", i), width: w}
		m.Items = append(m.Items, &verilog.NetDecl{Kind: verilog.NetReg, Range: rangeFor(w), Names: []string{s.name}})
		body := g.stmt([]sigRef{s}, 2, false)
		m.Items = append(m.Items, &verilog.Always{Kind: verilog.AlwaysPlain, Body: body})
		g.readable = append(g.readable, s)
	}

	// Sequential always blocks over the state registers.
	nBlocks := 1
	if len(seqRegs) > 1 && rng.Intn(3) == 0 {
		nBlocks = 2
	}
	split := len(seqRegs)
	if nBlocks == 2 {
		split = 1 + rng.Intn(len(seqRegs)-1)
	}
	groups := [][]sigRef{seqRegs[:split]}
	if nBlocks == 2 {
		groups = append(groups, seqRegs[split:])
	}
	for _, grp := range groups {
		body := g.stmt(grp, 3, true)
		if g.hasReset {
			// Occasionally leave one register out of the reset branch, so
			// four-state runs exercise genuinely uninitialised state (the
			// reset-bug class) under the differential oracles.
			skip := -1
			if len(grp) > 1 && g.rng.Intn(4) == 0 {
				skip = g.rng.Intn(len(grp))
			}
			var resets []verilog.Stmt
			for i, r := range grp {
				if i == skip {
					continue
				}
				resets = append(resets, &verilog.NonBlocking{LHS: ident(r.name), RHS: g.number(r.width)})
			}
			body = &verilog.If{
				Cond: &verilog.Unary{Op: verilog.UnaryLogicalNot, X: ident("rst_n")},
				Then: &verilog.Block{Stmts: resets},
				Else: body,
			}
		}
		kind := verilog.AlwaysPlain
		if g.rng.Intn(3) == 0 {
			kind = verilog.AlwaysFF
		}
		m.Items = append(m.Items, &verilog.Always{
			Kind:   kind,
			Events: []verilog.Event{{Edge: verilog.EdgePos, Signal: "clk"}},
			Body:   body,
		})
	}

	// Outputs: fresh wires assigned from the full readable set.
	nOut := 1 + rng.Intn(2)
	for i := 0; i < nOut; i++ {
		w := g.sigWidth()
		name := fmt.Sprintf("out%d", i)
		m.Ports = append(m.Ports, &verilog.Port{Dir: verilog.DirOutput, Range: rangeFor(w), Name: name})
		m.Items = append(m.Items, &verilog.AssignItem{LHS: ident(name), RHS: g.expr(3)})
	}

	// SVA properties over the readable signals.
	nAssert := rng.Intn(3)
	for i := 0; i < nAssert; i++ {
		g.addAssert(m, i)
	}
	return m
}

// GenerateSource prints the module generated from seed. The same seed
// always yields the same text.
func GenerateSource(seed int64) string {
	return verilog.Print(GenerateModule(rand.New(rand.NewSource(seed))))
}

// GenerateModuleXZ synthesises a module and then re-spells roughly a third
// of its literals with x/z digits — the x-saturated distribution behind
// the FuzzFourState target, distinct from the base generator's ~1-in-6
// rate. Structural literals (parameter values, slice bounds, replication
// counts, plain-decimal $past depths) keep their known spelling: an x/z
// part-select bound, replication count or $past depth is a compile error.
func GenerateModuleXZ(rng *rand.Rand) *verilog.Module {
	m := GenerateModule(rng)
	injectXZ(m, rng)
	return m
}

// GenerateSourceXZ prints the x-saturated module generated from seed.
func GenerateSourceXZ(seed int64) string {
	return verilog.Print(GenerateModuleXZ(rand.New(rand.NewSource(seed))))
}

// injectXZ walks the module's value positions and re-spells literals with
// x/z digits in place, preserving width and base (group-aligned, so the
// spelling round-trips in its own base).
func injectXZ(m *verilog.Module, rng *rand.Rand) {
	var expr func(e verilog.Expr)
	expr = func(e verilog.Expr) {
		switch x := e.(type) {
		case *verilog.Number:
			xzify(x, rng)
		case *verilog.Unary:
			expr(x.X)
		case *verilog.Binary:
			expr(x.X)
			expr(x.Y)
		case *verilog.Ternary:
			expr(x.Cond)
			expr(x.X)
			expr(x.Y)
		case *verilog.Index:
			expr(x.X)
			expr(x.Idx) // x index selects/stores are defined (x / no-op)
		case *verilog.Slice:
			expr(x.X) // bounds stay known: structural
		case *verilog.Concat:
			for _, el := range x.Elems {
				expr(el)
			}
		case *verilog.Repl:
			expr(x.Elem) // count stays known: structural
		case *verilog.Call:
			for _, a := range x.Args {
				expr(a)
			}
		}
	}
	var stmt func(s verilog.Stmt)
	stmt = func(s verilog.Stmt) {
		switch x := s.(type) {
		case *verilog.Block:
			for _, sub := range x.Stmts {
				stmt(sub)
			}
		case *verilog.Blocking:
			expr(x.LHS)
			expr(x.RHS)
		case *verilog.NonBlocking:
			expr(x.LHS)
			expr(x.RHS)
		case *verilog.If:
			expr(x.Cond)
			stmt(x.Then)
			if x.Else != nil {
				stmt(x.Else)
			}
		case *verilog.Case:
			expr(x.Subject)
			for i := range x.Items {
				for _, le := range x.Items[i].Exprs {
					expr(le)
				}
				stmt(x.Items[i].Body)
			}
		}
	}
	seq := func(s *verilog.SeqExpr) {
		if s == nil {
			return
		}
		for _, t := range s.Antecedent {
			expr(t.Expr)
		}
		for _, t := range s.Consequent {
			expr(t.Expr)
		}
	}
	for _, it := range m.Items {
		switch x := it.(type) {
		case *verilog.NetDecl:
			if x.Init != nil {
				expr(x.Init)
			}
		case *verilog.AssignItem:
			expr(x.LHS)
			expr(x.RHS)
		case *verilog.Always:
			stmt(x.Body)
		case *verilog.Initial:
			stmt(x.Body)
		case *verilog.PropertyDecl:
			expr(x.DisableIff)
			seq(x.Seq)
		case *verilog.AssertItem:
			expr(x.DisableIff)
			seq(x.Seq)
		}
		// ParamDecl values and declaration ranges stay known: structural.
	}
}

// xzify re-spells one literal with x/z digits in place (probability 1/3),
// aligned to its base's digit groups. Unsized and plain-decimal literals
// are left alone.
func xzify(n *verilog.Number, r *rand.Rand) {
	if n == nil || n.Width == 0 || r.Intn(3) != 0 {
		return
	}
	m := maskOf(n.Width)
	var x, z uint64
	switch n.Base {
	case 'b':
		x = r.Uint64() & m
		z = r.Uint64() & m &^ x
	case 'h':
		if n.Width%4 != 0 {
			return
		}
		for i := 0; i < n.Width/4; i++ {
			switch r.Intn(3) {
			case 0:
				x |= 0xF << uint(4*i)
			case 1:
				z |= 0xF << uint(4*i)
			}
		}
	case 'o':
		if n.Width%3 != 0 {
			return
		}
		for i := 0; i < n.Width/3; i++ {
			switch r.Intn(3) {
			case 0:
				x |= 0x7 << uint(3*i)
			case 1:
				z |= 0x7 << uint(3*i)
			}
		}
	case 'd':
		// Decimal can only be whole-literal x or z.
		if r.Intn(2) == 0 {
			x = m
		} else {
			z = m
		}
	default:
		return
	}
	if x|z == 0 {
		return
	}
	n.XMask, n.ZMask = x, z
	n.Value &^= x | z
}

func ident(name string) *verilog.Ident { return &verilog.Ident{Name: name} }

// danglingIf reports whether a statement's trailing if/else chain ends in
// an else-less if, which would capture a following else on reparse. The
// round-trip oracle's normaliser (equal.go) uses it to compute the
// parser-canonical form of generated statements.
func danglingIf(s verilog.Stmt) bool {
	x, ok := s.(*verilog.If)
	if !ok {
		return false
	}
	if x.Else == nil {
		return true
	}
	return danglingIf(x.Else)
}

func rangeFor(w int) *verilog.Range {
	if w == 1 {
		return nil
	}
	return &verilog.Range{Hi: &verilog.Number{Value: uint64(w - 1)}, Lo: &verilog.Number{Value: 0}}
}

// inputWidth keeps the total input space small enough that the formal
// oracle's exhaustive strategies stay cheap.
func (g *genCtx) inputWidth() int {
	return [...]int{1, 1, 1, 2, 2, 3, 4}[g.rng.Intn(7)]
}

// sigWidth spans the interesting internal widths, including the 32/64-bit
// boundaries where masking bugs live.
func (g *genCtx) sigWidth() int {
	return [...]int{1, 2, 3, 4, 5, 7, 8, 8, 16, 31, 32, 33, 63, 64}[g.rng.Intn(14)]
}

func maskOf(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// number emits a literal masked to width w, in a random spelling. About
// one literal in six carries x/z digits, so the four-state value planes
// stay under continuous differential test.
func (g *genCtx) number(w int) *verilog.Number {
	v := g.rng.Uint64()
	switch g.rng.Intn(4) {
	case 0:
		v &= 1
	case 1:
		v &= 0xF
	}
	if g.rng.Intn(6) == 0 {
		return g.unknownNumber(v)
	}
	switch g.rng.Intn(5) {
	case 0: // plain decimal (unsized): keep small and positive
		return &verilog.Number{Value: v & 0x3FF}
	case 1:
		lw := 1 + g.rng.Intn(8)
		return &verilog.Number{Width: lw, Base: 'b', Value: v & maskOf(lw)}
	case 2:
		lw := 1 + g.rng.Intn(8)
		return &verilog.Number{Width: lw, Base: 'h', Value: v & maskOf(lw)}
	case 3:
		lw := 1 + g.rng.Intn(8)
		return &verilog.Number{Width: lw, Base: 'd', Value: v & maskOf(lw)}
	default: // unsized based literal
		return &verilog.Number{Base: 'h', Value: v & 0xFF}
	}
}

// unknownNumber emits an x/z-bearing literal. Unknown digit groups are
// kept aligned to the base's digit size (any bit mix in binary, whole
// nibbles in hex, the whole literal in decimal) so the printed spelling
// stays in the literal's own base and round-trips exactly.
func (g *genCtx) unknownNumber(v uint64) *verilog.Number {
	r := g.rng
	switch r.Intn(4) {
	case 0: // binary: arbitrary x/z bit masks
		lw := 1 + r.Intn(8)
		m := maskOf(lw)
		x := r.Uint64() & m
		z := r.Uint64() & m &^ x
		if x|z == 0 {
			x = 1
		}
		return &verilog.Number{Width: lw, Base: 'b', Value: v & m &^ (x | z), XMask: x, ZMask: z}
	case 1: // hex: nibble-aligned unknown digits
		nibbles := 1 + r.Intn(2)
		lw := 4 * nibbles
		var x, z uint64
		for i := 0; i < nibbles; i++ {
			switch r.Intn(3) {
			case 0:
				x |= 0xF << uint(4*i)
			case 1:
				z |= 0xF << uint(4*i)
			}
		}
		if x|z == 0 {
			x = 0xF
		}
		return &verilog.Number{Width: lw, Base: 'h', Value: v & maskOf(lw) &^ (x | z), XMask: x, ZMask: z}
	case 2: // whole-literal decimal x/z
		lw := 1 + r.Intn(8)
		if r.Intn(2) == 0 {
			return &verilog.Number{Width: lw, Base: 'd', XMask: maskOf(lw)}
		}
		return &verilog.Number{Width: lw, Base: 'd', ZMask: maskOf(lw)}
	default: // single unknown bit
		if r.Intn(2) == 0 {
			return &verilog.Number{Width: 1, Base: 'b', XMask: 1}
		}
		return &verilog.Number{Width: 1, Base: 'b', ZMask: 1}
	}
}

func (g *genCtx) pick() sigRef { return g.readable[g.rng.Intn(len(g.readable))] }

// pickWide returns a readable signal with width > 1 when one exists.
func (g *genCtx) pickWide() (sigRef, bool) {
	perm := g.rng.Perm(len(g.readable))
	for _, i := range perm {
		if g.readable[i].width > 1 {
			return g.readable[i], true
		}
	}
	return sigRef{}, false
}

var binOps = []verilog.BinaryOp{
	verilog.BinAdd, verilog.BinSub, verilog.BinMul, verilog.BinDiv, verilog.BinMod,
	verilog.BinAnd, verilog.BinOr, verilog.BinXor, verilog.BinXnor,
	verilog.BinLogAnd, verilog.BinLogOr,
	verilog.BinEq, verilog.BinNe, verilog.BinCaseEq, verilog.BinCaseNe,
	verilog.BinLt, verilog.BinLe, verilog.BinGt, verilog.BinGe,
	verilog.BinShl, verilog.BinShr, verilog.BinAShr,
}

var unOps = []verilog.UnaryOp{
	verilog.UnaryLogicalNot, verilog.UnaryBitNot, verilog.UnaryMinus, verilog.UnaryPlus,
	verilog.UnaryRedAnd, verilog.UnaryRedOr, verilog.UnaryRedXor, verilog.UnaryRedXnor,
}

// expr builds a random expression over the readable set with the given
// depth budget.
func (g *genCtx) expr(depth int) verilog.Expr {
	r := g.rng
	if depth <= 0 || r.Intn(5) == 0 {
		// Leaf: identifier, parameter, or literal.
		switch {
		case len(g.params) > 0 && r.Intn(8) == 0:
			return ident(g.params[r.Intn(len(g.params))].name)
		case r.Intn(3) == 0:
			return g.number(8)
		default:
			return ident(g.pick().name)
		}
	}
	switch r.Intn(12) {
	case 0, 1:
		return &verilog.Unary{Op: unOps[r.Intn(len(unOps))], X: g.expr(depth - 1)}
	case 2, 3, 4, 5:
		return &verilog.Binary{Op: binOps[r.Intn(len(binOps))], X: g.expr(depth - 1), Y: g.expr(depth - 1)}
	case 6:
		return &verilog.Ternary{Cond: g.expr(depth - 1), X: g.expr(depth - 1), Y: g.expr(depth - 1)}
	case 7:
		s, ok := g.pickWide()
		if !ok {
			return ident(g.pick().name)
		}
		if r.Intn(3) == 0 { // dynamic bit select, deep enough to stress tight()
			return &verilog.Index{X: ident(s.name), Idx: g.expr(2)}
		}
		return &verilog.Index{X: ident(s.name), Idx: &verilog.Number{Value: uint64(r.Intn(s.width))}}
	case 8:
		s, ok := g.pickWide()
		if !ok {
			return ident(g.pick().name)
		}
		lo := r.Intn(s.width)
		hi := lo + r.Intn(s.width-lo)
		var hiE verilog.Expr = &verilog.Number{Value: uint64(hi)}
		// Parameter slice bounds exercise the planner's constant folding.
		if len(g.params) > 0 && r.Intn(6) == 0 {
			p := g.params[0]
			if pv := int(g.paramVal[p.name]); pv >= lo && pv < s.width {
				hiE = ident(p.name)
			}
		}
		return &verilog.Slice{X: ident(s.name), Hi: hiE, Lo: &verilog.Number{Value: uint64(lo)}}
	case 9:
		n := 2 + r.Intn(2)
		elems := make([]verilog.Expr, n)
		for i := range elems {
			elems[i] = g.expr(depth - 1)
		}
		return &verilog.Concat{Elems: elems}
	case 10:
		return &verilog.Repl{
			Count: &verilog.Number{Value: uint64(1 + r.Intn(3))},
			Elem:  g.expr(depth - 1),
		}
	default:
		name := [...]string{"$countones", "$onehot", "$onehot0", "$signed", "$unsigned", "$isunknown"}[r.Intn(6)]
		return &verilog.Call{Name: name, Args: []verilog.Expr{g.expr(depth - 1)}}
	}
}

// target builds a random assignment target over the writable set:
// whole-signal, constant/dynamic bit select, constant slice, or a
// concatenation — the read-modify-write corner cases PR 2 fixed by hand.
func (g *genCtx) target(writable []sigRef) verilog.Expr {
	r := g.rng
	s := writable[r.Intn(len(writable))]
	switch r.Intn(6) {
	case 0:
		if s.width > 1 {
			if r.Intn(3) == 0 {
				return &verilog.Index{X: ident(s.name), Idx: g.expr(1)}
			}
			return &verilog.Index{X: ident(s.name), Idx: &verilog.Number{Value: uint64(r.Intn(s.width))}}
		}
		return ident(s.name)
	case 1:
		if s.width > 2 {
			lo := r.Intn(s.width - 1)
			hi := lo + 1 + r.Intn(s.width-lo-1)
			return &verilog.Slice{X: ident(s.name),
				Hi: &verilog.Number{Value: uint64(hi)}, Lo: &verilog.Number{Value: uint64(lo)}}
		}
		return ident(s.name)
	case 2:
		if len(writable) > 1 {
			t := writable[r.Intn(len(writable))]
			if t.name != s.name {
				return &verilog.Concat{Elems: []verilog.Expr{ident(s.name), ident(t.name)}}
			}
		}
		return ident(s.name)
	default:
		return ident(s.name)
	}
}

// stmt builds a statement tree writing only the given signals. seq selects
// sequential context (nonblocking assignments allowed and common).
func (g *genCtx) stmt(writable []sigRef, depth int, seq bool) verilog.Stmt {
	r := g.rng
	assign := func() verilog.Stmt {
		lhs := g.target(writable)
		rhs := g.expr(2)
		if seq && r.Intn(3) != 0 {
			return &verilog.NonBlocking{LHS: lhs, RHS: rhs}
		}
		return &verilog.Blocking{LHS: lhs, RHS: rhs}
	}
	if depth <= 0 {
		return assign()
	}
	switch r.Intn(6) {
	case 0:
		n := 1 + r.Intn(3)
		blk := &verilog.Block{}
		for i := 0; i < n; i++ {
			blk.Stmts = append(blk.Stmts, g.stmt(writable, depth-1, seq))
		}
		return blk
	case 1, 2:
		// A dangling if under an else is emitted as-is: the printer must
		// wrap it in begin/end itself (the round-trip oracle compares
		// against the parser-canonical form), so the fuzzer keeps that
		// printer path under continuous test.
		ifS := &verilog.If{Cond: g.expr(2), Then: g.stmt(writable, depth-1, seq)}
		if r.Intn(2) == 0 {
			ifS.Else = g.stmt(writable, depth-1, seq)
		}
		return ifS
	case 3:
		cs := &verilog.Case{IsCasez: r.Intn(4) == 0, Subject: g.expr(1)}
		nArms := 1 + r.Intn(3)
		for i := 0; i < nArms; i++ {
			item := verilog.CaseItem{Body: g.stmt(writable, depth-1, seq)}
			nLbl := 1 + r.Intn(2)
			for j := 0; j < nLbl; j++ {
				item.Exprs = append(item.Exprs, g.number(4))
			}
			cs.Items = append(cs.Items, item)
		}
		if r.Intn(2) == 0 {
			cs.Items = append(cs.Items, verilog.CaseItem{Body: g.stmt(writable, depth-1, seq)})
		}
		return cs
	default:
		return assign()
	}
}

// boolTerm builds an SVA boolean term: either a plain expression or one of
// the sampled-value functions.
func (g *genCtx) boolTerm() verilog.Expr {
	r := g.rng
	switch r.Intn(6) {
	case 0:
		name := [...]string{"$rose", "$fell", "$stable", "$changed"}[r.Intn(4)]
		return &verilog.Call{Name: name, Args: []verilog.Expr{ident(g.pick().name)}}
	case 1:
		args := []verilog.Expr{g.expr(1)}
		if r.Intn(2) == 0 {
			args = append(args, &verilog.Number{Value: uint64(1 + r.Intn(3))})
		}
		past := &verilog.Call{Name: "$past", Args: args}
		return &verilog.Binary{Op: verilog.BinEq, X: g.expr(1), Y: past}
	case 2:
		return &verilog.Binary{
			Op: [...]verilog.BinaryOp{verilog.BinEq, verilog.BinNe, verilog.BinLt, verilog.BinLe, verilog.BinGt, verilog.BinGe}[r.Intn(6)],
			X:  g.expr(1), Y: g.expr(1),
		}
	default:
		return g.expr(2)
	}
}

func (g *genCtx) seqTerms(n int) []verilog.SeqTerm {
	terms := make([]verilog.SeqTerm, n)
	for i := range terms {
		d := 0
		if i > 0 || g.rng.Intn(6) == 0 {
			d = g.rng.Intn(3) // includes ##0 fusion between terms
		}
		terms[i] = verilog.SeqTerm{DelayFromPrev: d, Expr: g.boolTerm()}
	}
	return terms
}

func (g *genCtx) seqExpr() *verilog.SeqExpr {
	r := g.rng
	switch r.Intn(3) {
	case 0:
		return &verilog.SeqExpr{Impl: verilog.ImplNone, Consequent: g.seqTerms(1 + r.Intn(2))}
	case 1:
		return &verilog.SeqExpr{
			Antecedent: g.seqTerms(1 + r.Intn(2)),
			Impl:       verilog.ImplOverlap,
			Consequent: g.seqTerms(1 + r.Intn(2)),
		}
	default:
		return &verilog.SeqExpr{
			Antecedent: g.seqTerms(1),
			Impl:       verilog.ImplNonOverlap,
			Consequent: g.seqTerms(1 + r.Intn(2)),
		}
	}
}

func (g *genCtx) addAssert(m *verilog.Module, idx int) {
	r := g.rng
	clock := verilog.Event{Edge: verilog.EdgePos, Signal: "clk"}
	var disable verilog.Expr
	if g.hasReset && r.Intn(2) == 0 {
		disable = &verilog.Unary{Op: verilog.UnaryLogicalNot, X: ident("rst_n")}
	}
	seq := g.seqExpr()
	label := ""
	if r.Intn(2) == 0 {
		label = fmt.Sprintf("chk%d", idx)
	}
	errMsg := ""
	if r.Intn(3) == 0 {
		errMsg = fmt.Sprintf("violation %d", idx)
	}
	if r.Intn(2) == 0 {
		// Named property + reference.
		name := fmt.Sprintf("p%d", idx)
		m.Items = append(m.Items, &verilog.PropertyDecl{
			Name: name, Clock: clock, DisableIff: disable, Seq: seq,
		})
		m.Items = append(m.Items, &verilog.AssertItem{Label: label, Ref: name, ErrMsg: errMsg})
		return
	}
	ev := clock
	m.Items = append(m.Items, &verilog.AssertItem{
		Label: label, Clock: &ev, DisableIff: disable, Seq: seq, ErrMsg: errMsg,
	})
}
