// Package compile elaborates parsed Verilog modules into simulatable
// designs and performs the semantic checks that the paper delegates to the
// Icarus Verilog compiler: name resolution, declaration consistency,
// assignment-target legality, width sanity, and assertion resolution.
//
// Compile is the gate used by the data-augmentation pipeline (Stage 1 syntax
// checking and Stage 2 bug-sanitisation): a design "compiles" when parsing
// succeeds and elaboration produces no error-severity diagnostics.
//
// Multi-module sources elaborate hierarchically: Flatten resolves every
// module instantiation under the set's top module — evaluating parameter
// overrides per instantiation and uniquifying child names with a dotted
// instance prefix ("u0.count") — into a single flat module, which then
// elaborates exactly like hand-written flat source. The flat slot-indexed
// Design stays the single execution representation; hierarchy exists only
// in the names.
//
// Elaboration also groups the design's sequential blocks into clock
// domains (Design.Domains/DomainOf). Single-domain designs keep the
// implicit one-edge-per-stimulus-row execution model unchanged; designs
// with several domains advance each domain only on its own clock edges.
package compile

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/verilog"
)

// Severity classifies a diagnostic.
type Severity int

// Diagnostic severities.
const (
	SevWarning Severity = iota
	SevError
)

// String returns "warning" or "error".
func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Diagnostic is one compiler message.
type Diagnostic struct {
	Pos      verilog.Pos
	Severity Severity
	Msg      string
}

// String renders the diagnostic in a compiler-like format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Severity, d.Msg)
}

// HasErrors reports whether any diagnostic is an error.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == SevError {
			return true
		}
	}
	return false
}

// FormatDiags renders diagnostics one per line, the way a compiler log would
// appear in the Verilog-PT dataset.
func FormatDiags(diags []Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// SignalKind classifies an elaborated signal.
type SignalKind int

// Signal kinds.
const (
	SigInput SignalKind = iota
	SigOutput
	SigWire
	SigReg
)

var signalKindNames = [...]string{"input", "output", "wire", "reg"}

// String returns the kind keyword.
func (k SignalKind) String() string { return signalKindNames[k] }

// Signal is one elaborated net or variable.
type Signal struct {
	Name  string
	Kind  SignalKind
	Width int  // 1..64
	IsReg bool // procedural target (reg-typed output or reg)
	// Slot is the signal's dense state index: Design.Order[Slot] == Name.
	// Simulator state is stored as []uint64 indexed by Slot, so execution
	// plans never hash signal names on the hot path.
	Slot int
}

// Mask returns the bit mask for the signal's width.
func (s *Signal) Mask() uint64 {
	if s.Width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(s.Width)) - 1
}

// ResolvedAssert is a concurrent assertion with its property resolved.
type ResolvedAssert struct {
	Name       string
	Clock      verilog.Event
	DisableIff verilog.Expr
	Seq        *verilog.SeqExpr
	ErrMsg     string
}

// Design is an elaborated module ready for simulation and formal checking.
type Design struct {
	Module  *verilog.Module
	Signals map[string]*Signal
	// Order lists signal names deterministically: ports first in declaration
	// order, then internal nets sorted by name.
	Order      []string
	Params     Params
	Assigns    []*verilog.AssignItem
	CombAlways []*verilog.Always
	SeqAlways  []*verilog.Always
	Initials   []*verilog.Initial
	Asserts    []ResolvedAssert
	// Domains lists the design's clock domains in first-appearance order
	// (sequential blocks first, then assertion clocks). DomainOf[i] is the
	// domain index of SeqAlways[i]. Single-domain designs execute with the
	// classic implicit edge-per-row model; see MultiClock.
	Domains  []ClockDomain
	DomainOf []int
	RegInit  map[string]uint64 // constant initials from initial blocks / decls
	// RegInitX holds the unknown-bit plane of RegInit entries whose
	// initialiser was an x/z-bearing literal (the bits read as 0 in RegInit,
	// preserving two-state behaviour; the four-state simulator starts them
	// as x). Only direct Number literals carry unknown bits — an x inside a
	// larger constant expression folds to 0, a documented simplification.
	RegInitX map[string]uint64

	// planMu/plan hold a lazily-built execution artifact (internal/sim's
	// compiled plan). Storing it on the design ties its lifetime to the
	// design's: internal/verify's verdict cache retains designs, so a
	// cached verdict carries its compiled plan with it.
	planMu sync.Mutex
	plan   any
}

// ClockDomain identifies one clock event group: all sequential blocks
// sensitive to the same edge of the same signal advance together.
type ClockDomain struct {
	Signal string
	Edge   verilog.EdgeKind
}

// String renders the domain as an event, e.g. "posedge clk_a".
func (c ClockDomain) String() string {
	kw := "posedge"
	if c.Edge == verilog.EdgeNeg {
		kw = "negedge"
	}
	return kw + " " + c.Signal
}

// MultiClock reports whether the design has more than one clock domain.
// Single-domain (and purely combinational) designs run the classic
// one-edge-per-stimulus-row model, where the clock column's value is
// ignored; multi-clock designs fire each domain only on its own edges.
func (d *Design) MultiClock() bool { return len(d.Domains) > 1 }

// SlotCount returns the number of dense signal slots; slots are the indices
// 0..SlotCount()-1 in Order.
func (d *Design) SlotCount() int { return len(d.Order) }

// CachedPlan returns the design's cached execution artifact, building it
// with build on first use. Concurrent callers see a single build; the
// artifact must be safe for shared read-only use.
func (d *Design) CachedPlan(build func() any) any {
	d.planMu.Lock()
	defer d.planMu.Unlock()
	if d.plan == nil {
		d.plan = build()
	}
	return d.plan
}

// Inputs returns the input ports excluding clock/reset-style signals when
// skipClkRst is set (used by stimulus generators).
func (d *Design) Inputs(skipClkRst bool) []*Signal {
	var out []*Signal
	for _, p := range d.Module.Ports {
		if p.Dir != verilog.DirInput {
			continue
		}
		if skipClkRst && IsClockOrReset(p.Name) {
			continue
		}
		out = append(out, d.Signals[p.Name])
	}
	return out
}

// Outputs returns the output port signals in declaration order.
func (d *Design) Outputs() []*Signal {
	var out []*Signal
	for _, p := range d.Module.Ports {
		if p.Dir == verilog.DirOutput {
			out = append(out, d.Signals[p.Name])
		}
	}
	return out
}

// LeafName returns the last '.'-separated segment of a possibly
// hierarchical signal name: LeafName("u0.count") == "count". Flattened
// child signals keep their role under their instance prefix, so every
// naming heuristic in this package matches on the leaf segment.
func LeafName(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// IsClock reports whether a signal name follows the clock naming
// conventions used throughout the corpus (clk, clock, clk_i, i_clk).
// Hierarchical names match on their leaf segment.
func IsClock(name string) bool {
	switch strings.ToLower(LeafName(name)) {
	case "clk", "clock", "clk_i", "i_clk":
		return true
	}
	return false
}

// IsClockOrReset reports whether a signal name follows the clock/reset
// naming conventions used throughout the corpus (clk, clock, rst, rst_n,
// reset...). Hierarchical names match on their leaf segment, so a
// flattened child's "u0.rst_n" is still recognised as a reset.
func IsClockOrReset(name string) bool {
	if IsClock(name) {
		return true
	}
	switch strings.ToLower(LeafName(name)) {
	case "rst", "rst_n", "reset", "reset_n", "rstn", "arst_n", "i_rst", "rst_ni":
		return true
	}
	return false
}

// ClockName returns the design's clock input name, defaulting to "clk".
func (d *Design) ClockName() string {
	for _, p := range d.Module.Ports {
		ln := strings.ToLower(p.Name)
		if p.Dir == verilog.DirInput && (strings.HasPrefix(ln, "clk") || strings.HasPrefix(ln, "clock") || ln == "i_clk") {
			return p.Name
		}
	}
	return "clk"
}

// ResetInfo describes the reset input, if any.
type ResetInfo struct {
	Name      string
	ActiveLow bool
	Present   bool
}

// ResetNameInfo is the single definition of the corpus reset-naming
// convention: whether a name denotes a reset, and whether that reset is
// active low (any rst/reset name ending in n). Design.Reset and the
// bug-injection engine's reset-branch detection both resolve through it,
// so the two can never disagree about which branch a reset guards.
// Hierarchical names resolve through their leaf segment.
func ResetNameInfo(name string) (isReset, activeLow bool) {
	ln := strings.ToLower(LeafName(name))
	isReset = strings.HasPrefix(ln, "rst") || strings.HasPrefix(ln, "reset") || ln == "arst_n"
	activeLow = strings.HasSuffix(ln, "_n") || strings.HasSuffix(ln, "_ni") || strings.HasSuffix(ln, "rstn")
	return isReset, activeLow
}

// Reset returns the design's reset input description.
func (d *Design) Reset() ResetInfo {
	for _, p := range d.Module.Ports {
		if p.Dir != verilog.DirInput {
			continue
		}
		if isReset, activeLow := ResetNameInfo(p.Name); isReset {
			return ResetInfo{Name: p.Name, ActiveLow: activeLow, Present: true}
		}
	}
	return ResetInfo{}
}

// Compile parses and elaborates source text, which may contain several
// modules: the unique uninstantiated module becomes the top and every
// instantiation under it is flattened. A parse failure or top-module
// ambiguity is returned as err; semantic problems are reported in diags.
// design is nil whenever compilation failed (err != nil or error
// diagnostics present).
func Compile(src string) (*Design, []Diagnostic, error) {
	set, err := verilog.ParseSet(src)
	if err != nil {
		return nil, nil, err
	}
	return CompileSet(set)
}

// CompileSet elaborates a parsed source set. A single module without
// instantiations takes the exact single-module elaboration path; anything
// else is flattened first (see Flatten).
func CompileSet(set *verilog.SourceSet) (*Design, []Diagnostic, error) {
	if len(set.Modules) == 1 && len(set.Modules[0].Instances()) == 0 {
		d, diags := Elaborate(set.Modules[0])
		if HasErrors(diags) {
			return nil, diags, nil
		}
		return d, diags, nil
	}
	if _, err := set.Top(); err != nil {
		return nil, nil, err
	}
	flat, fdiags := Flatten(set)
	if flat == nil || HasErrors(fdiags) {
		return nil, fdiags, nil
	}
	d, diags := Elaborate(flat)
	diags = append(fdiags, diags...)
	if HasErrors(diags) {
		return nil, diags, nil
	}
	return d, diags, nil
}

// Elaborate builds a Design from a parsed module, reporting semantic
// diagnostics. The returned design is usable only if no error diagnostics
// were produced.
func Elaborate(m *verilog.Module) (*Design, []Diagnostic) {
	e := &elaborator{
		design: &Design{
			Module:   m,
			Signals:  map[string]*Signal{},
			Params:   map[string]uint64{},
			RegInit:  map[string]uint64{},
			RegInitX: map[string]uint64{},
		},
	}
	e.run()
	return e.design, e.diags
}

type elaborator struct {
	design *Design
	diags  []Diagnostic
}

func (e *elaborator) errorf(pos verilog.Pos, format string, args ...any) {
	e.diags = append(e.diags, Diagnostic{Pos: pos, Severity: SevError, Msg: fmt.Sprintf(format, args...)})
}

func (e *elaborator) warnf(pos verilog.Pos, format string, args ...any) {
	e.diags = append(e.diags, Diagnostic{Pos: pos, Severity: SevWarning, Msg: fmt.Sprintf(format, args...)})
}

func (e *elaborator) run() {
	d := e.design
	m := d.Module

	// Pass 1: parameters, in declaration order.
	paramPos := map[string]verilog.Pos{}
	for _, it := range m.Items {
		if p, ok := it.(*verilog.ParamDecl); ok {
			v, ok2 := e.constEval(p.Value)
			if !ok2 {
				e.errorf(p.Pos, "parameter %s is not a constant expression", p.Name)
				continue
			}
			if _, dup := d.Params[p.Name]; dup {
				e.errorf(p.Pos, "parameter %s redeclared", p.Name)
				continue
			}
			d.Params[p.Name] = v
			paramPos[p.Name] = p.Pos
		}
	}
	// A name is a parameter or a signal, never both: the engines would
	// disagree about which one it means. The later declaration is reported.
	clashes := func(kind, name string, pos verilog.Pos) bool {
		ppos, ok := paramPos[name]
		if !ok {
			return false
		}
		if ppos.Line > pos.Line || ppos.Line == pos.Line && ppos.Col > pos.Col {
			e.errorf(ppos, "parameter %s redeclared: %s is a %s", name, name, kind)
		} else {
			e.errorf(pos, "%s %s redeclared: %s is a parameter", kind, name, name)
		}
		return true
	}

	// Pass 2: ports.
	for _, p := range m.Ports {
		width := e.rangeWidth(p.Range, p.Pos)
		kind := SigInput
		isReg := false
		switch p.Dir {
		case verilog.DirOutput:
			kind = SigOutput
			isReg = p.IsReg
		case verilog.DirInout:
			e.errorf(p.Pos, "inout ports are not supported")
			continue
		default:
			if p.IsReg {
				e.errorf(p.Pos, "input %s declared reg", p.Name)
			}
		}
		if _, dup := d.Signals[p.Name]; dup {
			e.errorf(p.Pos, "port %s redeclared", p.Name)
			continue
		}
		if clashes("port", p.Name, p.Pos) {
			continue
		}
		d.Signals[p.Name] = &Signal{Name: p.Name, Kind: kind, Width: width, IsReg: isReg}
		d.Order = append(d.Order, p.Name)
	}

	// Pass 3: internal nets.
	var internals []string
	for _, it := range m.Items {
		nd, ok := it.(*verilog.NetDecl)
		if !ok {
			continue
		}
		width := e.rangeWidth(nd.Range, nd.Pos)
		if nd.Kind == verilog.NetInteger {
			width = 32
		}
		for _, name := range nd.Names {
			if existing, dup := d.Signals[name]; dup {
				// "output reg" split across port and reg decl is legal.
				if existing.Kind == SigOutput && nd.Kind == verilog.NetReg {
					existing.IsReg = true
					if nd.Range != nil && existing.Width != width {
						e.errorf(nd.Pos, "signal %s redeclared with different width", name)
					}
					continue
				}
				e.errorf(nd.Pos, "signal %s redeclared", name)
				continue
			}
			if clashes("signal", name, nd.Pos) {
				continue
			}
			isReg := nd.Kind == verilog.NetReg || nd.Kind == verilog.NetInteger
			kind := SigWire
			if isReg {
				kind = SigReg
			}
			d.Signals[name] = &Signal{Name: name, Kind: kind, Width: width, IsReg: isReg}
			internals = append(internals, name)
		}
		if nd.Init != nil {
			if v, ok := e.constEval(nd.Init); ok && nd.Kind != verilog.NetWire {
				d.RegInit[nd.Names[0]] = v
				d.RegInitX[nd.Names[0]] = literalUnknown(nd.Init)
			} else if nd.Kind == verilog.NetWire {
				// wire w = expr is a continuous assignment.
				d.Assigns = append(d.Assigns, &verilog.AssignItem{
					LHS: &verilog.Ident{Name: nd.Names[0], Pos: nd.Pos},
					RHS: nd.Init,
					Pos: nd.Pos,
				})
			}
		}
	}
	sort.Strings(internals)
	d.Order = append(d.Order, internals...)
	for i, name := range d.Order {
		d.Signals[name].Slot = i
	}

	// Pass 4: behavioural items and assertions. A wire's initialiser,
	// already a continuous assignment, is checked here, where every
	// signal it may read is declared.
	for _, as := range d.Assigns {
		e.checkExpr(as.RHS, as.Pos)
	}
	props := map[string]*verilog.PropertyDecl{}
	for _, it := range m.Items {
		if p, ok := it.(*verilog.PropertyDecl); ok {
			if _, dup := props[p.Name]; dup {
				e.errorf(p.Pos, "property %s redeclared", p.Name)
				continue
			}
			props[p.Name] = p
		}
	}
	assertIdx := 0
	for _, it := range m.Items {
		switch x := it.(type) {
		case *verilog.AssignItem:
			e.checkAssignTarget(x.LHS, false)
			e.checkExpr(x.RHS, x.Pos)
			e.checkExpr(x.LHS, x.Pos)
			d.Assigns = append(d.Assigns, x)
		case *verilog.Always:
			e.elabAlways(x)
		case *verilog.Initial:
			e.elabInitial(x)
			d.Initials = append(d.Initials, x)
		case *verilog.AssertItem:
			ra, ok := e.resolveAssert(x, props, assertIdx)
			if ok {
				d.Asserts = append(d.Asserts, ra)
			}
			assertIdx++
		case *verilog.Instance:
			// Single-module elaboration cannot resolve instances; Compile
			// flattens the whole set first so this only fires on misuse.
			e.errorf(x.Pos, "unresolved instantiation of module %q (flatten the source set first)", x.Module)
		}
	}

	// Unresolved-property check and per-property expression checks, in
	// declaration order (iterating the props map would make diagnostic
	// order vary between runs).
	for _, it := range m.Items {
		p, ok := it.(*verilog.PropertyDecl)
		if !ok || props[p.Name] != p {
			continue
		}
		if p.DisableIff != nil {
			e.checkExpr(p.DisableIff, p.Pos)
		}
		e.checkSeq(p.Seq, p.Pos)
		if p.Clock.Signal != "" {
			e.checkName(p.Clock.Signal, p.Pos)
		}
	}

	// Pass 5: clock domains.
	e.computeDomains()
}

// clockEventOf picks the clock event of a sequential block: the first edge
// event whose signal is not reset-named (so "posedge clk or negedge rst_n"
// is clocked by clk), falling back to the first edge event.
func clockEventOf(al *verilog.Always) verilog.Event {
	for _, ev := range al.Events {
		if ev.Edge == verilog.EdgeAny {
			continue
		}
		if isReset, _ := ResetNameInfo(ev.Signal); !isReset {
			return ev
		}
	}
	for _, ev := range al.Events {
		if ev.Edge != verilog.EdgeAny {
			return ev
		}
	}
	return verilog.Event{}
}

// computeDomains groups sequential blocks by clock event and validates the
// multi-clock subset: every domain clock must be a 1-bit input port, and at
// most 64 domains fit the engines' fired-mask words. Assertion clocks join
// the domain list so their sampling schedule is defined even when no
// register uses that clock. Async reset edges do not open domains: a block
// fires with its clock, and the reset branch is evaluated at those edges.
func (e *elaborator) computeDomains() {
	d := e.design
	d.DomainOf = make([]int, len(d.SeqAlways))
	index := map[ClockDomain]int{}
	add := func(cd ClockDomain) int {
		if i, ok := index[cd]; ok {
			return i
		}
		i := len(d.Domains)
		index[cd] = i
		d.Domains = append(d.Domains, cd)
		return i
	}
	for i, al := range d.SeqAlways {
		ev := clockEventOf(al)
		d.DomainOf[i] = add(ClockDomain{Signal: ev.Signal, Edge: ev.Edge})
	}
	for i := range d.Asserts {
		a := &d.Asserts[i]
		if a.Clock.Signal != "" && a.Clock.Edge != verilog.EdgeAny {
			add(ClockDomain{Signal: a.Clock.Signal, Edge: a.Clock.Edge})
		}
	}
	if len(d.Domains) <= 1 {
		return
	}
	if len(d.Domains) > 64 {
		e.errorf(d.Module.Pos, "design has %d clock domains; the simulator supports at most 64", len(d.Domains))
		return
	}
	for _, cd := range d.Domains {
		sig := d.Signals[cd.Signal]
		if sig == nil || sig.Kind != SigInput || sig.Width != 1 {
			e.errorf(d.Module.Pos, "multi-clock design: clock %q must be a 1-bit input port", cd.Signal)
		}
	}
}

func (e *elaborator) rangeWidth(r *verilog.Range, pos verilog.Pos) int {
	if r == nil {
		return 1
	}
	hi, ok1 := e.constEval(r.Hi)
	lo, ok2 := e.constEval(r.Lo)
	if !ok1 || !ok2 {
		e.errorf(pos, "range bounds must be constant")
		return 1
	}
	if lo != 0 {
		e.warnf(pos, "non-zero LSB %d treated as width only", lo)
	}
	if hi < lo {
		e.errorf(pos, "descending range [%d:%d] not supported", hi, lo)
		return 1
	}
	w := int(hi-lo) + 1
	if w > 64 {
		e.errorf(pos, "width %d exceeds 64-bit simulator limit", w)
		return 64
	}
	return w
}

// literalUnknown returns the unknown-bit mask of a direct literal
// initialiser (0 for anything else).
func literalUnknown(e verilog.Expr) uint64 {
	if n, ok := e.(*verilog.Number); ok {
		return n.Unknown()
	}
	return 0
}

// constEval evaluates a constant expression using resolved parameters.
func (e *elaborator) constEval(expr verilog.Expr) (uint64, bool) {
	return evalConst(expr, e.design.Params)
}

func (e *elaborator) checkName(name string, pos verilog.Pos) *Signal {
	if s, ok := e.design.Signals[name]; ok {
		return s
	}
	if _, ok := e.design.Params[name]; ok {
		return nil
	}
	e.errorf(pos, "undeclared identifier %q", name)
	return nil
}

// maxPastDepth bounds a $past depth, as the simulator's history offset does.
const maxPastDepth = 1<<31 - 1

// checkExpr validates every identifier, call, part-select, replication and
// string literal in an expression. What it accepts the simulator's planner
// lowers: part-select bounds, replication counts and $past depths are
// constants compile has folded (see constant), and only the supported
// system functions appear.
func (e *elaborator) checkExpr(expr verilog.Expr, pos verilog.Pos) {
	verilog.WalkExpr(expr, func(sub verilog.Expr) {
		switch x := sub.(type) {
		case *verilog.Ident:
			e.checkName(x.Name, x.Pos)
		case *verilog.Slice:
			e.checkSlice(x)
		case *verilog.Repl:
			e.constant(x.Count, "replication count")
		case *verilog.StringLit:
			e.errorf(x.Pos, "string literal in expression context")
		case *verilog.Call:
			switch x.Name {
			case "$past", "$rose", "$fell", "$stable", "$changed", "$countones", "$onehot", "$onehot0", "$signed", "$unsigned", "$isunknown":
				if len(x.Args) == 0 {
					e.errorf(x.Pos, "%s requires at least one argument", x.Name)
				} else if x.Name == "$past" && len(x.Args) > 1 {
					e.checkPastDepth(x.Args[1])
				}
			default:
				e.errorf(x.Pos, "unsupported system function %s", x.Name)
			}
		}
	})
}

// checkSlice requires a part-select's bounds to be constants in descending
// order. A select whose lsb lies at bit 64 or beyond, past the widest
// signal, compiles and fails when it is evaluated, on every engine.
func (e *elaborator) checkSlice(x *verilog.Slice) {
	hi, ok := e.constant(x.Hi, "part-select bound")
	if !ok {
		return
	}
	if lo, ok := e.constant(x.Lo, "part-select bound"); ok && lo > hi {
		e.errorf(x.Pos, "reversed part-select [%d:%d]", hi, lo)
	}
}

// checkPastDepth requires a $past depth to be a constant in
// [1, maxPastDepth].
func (e *elaborator) checkPastDepth(depth verilog.Expr) {
	if n, ok := e.constant(depth, "$past depth"); ok && (n == 0 || n > maxPastDepth) {
		e.errorf(depth.Span(), "$past depth %d out of range [1, %d]", n, uint64(maxPastDepth))
	}
}

// constant folds x, the what of a part-select, replication or $past, with
// Fold. x must reference no signal, call nothing, hold no x/z literal bits,
// fold, and not divide by zero, which is x in the four-state domain; so
// every constant compile accepts has one value in both value domains, the
// value the planner reads back through Fold. The first failure is reported
// at its operand; an undeclared name or a string literal is left to
// checkExpr, which reports it.
func (e *elaborator) constant(x verilog.Expr, what string) (uint64, bool) {
	ok := true
	verilog.WalkExpr(x, func(sub verilog.Expr) {
		if !ok {
			return
		}
		switch s := sub.(type) {
		case *verilog.Ident:
			if e.design.Signals[s.Name] != nil {
				e.errorf(s.Pos, "non-constant %s: references signal %s", what, s.Name)
				ok = false
			} else if _, isParam := e.design.Params[s.Name]; !isParam {
				ok = false
			}
		case *verilog.Call:
			e.errorf(s.Pos, "non-constant %s: calls %s", what, s.Name)
			ok = false
		case *verilog.Number:
			if s.Unknown() != 0 {
				e.errorf(s.Pos, "%s has x/z bits", what)
				ok = false
			}
		case *verilog.StringLit:
			ok = false
		}
	})
	if !ok {
		return 0, false
	}
	f, ok := fold(x, e.design.Params)
	switch {
	case !ok:
		e.errorf(x.Span(), "%s does not fold to a constant", what)
	case f.x&divZero != 0:
		e.errorf(x.Span(), "%s divides by zero", what)
	default:
		return f.v, true
	}
	return 0, false
}

// checkAssignTarget validates an assignment LHS: a signal, a bit or part
// select of one, or a concatenation of such targets. procedural selects
// whether the assignment appears inside an always block.
func (e *elaborator) checkAssignTarget(lhs verilog.Expr, procedural bool) {
	base := lhs
	switch x := lhs.(type) {
	case *verilog.Concat:
		for _, el := range x.Elems {
			e.checkAssignTarget(el, procedural)
		}
		return
	case *verilog.Index:
		base = x.X
	case *verilog.Slice:
		base = x.X
	}
	id, ok := base.(*verilog.Ident)
	if !ok {
		e.errorf(base.Span(), "invalid assignment target")
		return
	}
	sig := e.checkName(id.Name, id.Pos)
	if sig == nil {
		if _, isParam := e.design.Params[id.Name]; isParam {
			e.errorf(id.Pos, "cannot assign to parameter %s", id.Name)
		}
		return
	}
	switch {
	case sig.Kind == SigInput:
		e.errorf(id.Pos, "cannot assign to input %s", id.Name)
	case procedural && !sig.IsReg:
		e.errorf(id.Pos, "procedural assignment to wire %s (declare it reg)", id.Name)
	case !procedural && sig.IsReg:
		e.errorf(id.Pos, "continuous assignment to reg %s (use a wire)", id.Name)
	}
}

func (e *elaborator) elabAlways(a *verilog.Always) {
	d := e.design
	isSeq := false
	hasLevel := false
	for _, ev := range a.Events {
		if ev.Edge == verilog.EdgeAny {
			hasLevel = true
		} else {
			isSeq = true
			e.checkName(ev.Signal, a.Pos)
		}
	}
	if isSeq && hasLevel {
		e.errorf(a.Pos, "mixed edge and level sensitivity")
		return
	}
	if a.Kind == verilog.AlwaysFF && !isSeq {
		e.errorf(a.Pos, "always_ff requires an edge-sensitive event list")
		return
	}
	e.checkStmt(a.Body, true)
	if isSeq {
		d.SeqAlways = append(d.SeqAlways, a)
	} else {
		d.CombAlways = append(d.CombAlways, a)
	}
}

func (e *elaborator) elabInitial(ini *verilog.Initial) {
	// Accept constant register initialisation only; everything else is
	// checked but ignored by the simulator.
	verilog.WalkStmt(ini.Body, func(s verilog.Stmt) {
		switch x := s.(type) {
		case *verilog.Blocking:
			if id, ok := x.LHS.(*verilog.Ident); ok {
				if v, cok := e.constEval(x.RHS); cok {
					if sig := e.design.Signals[id.Name]; sig != nil && sig.IsReg {
						e.design.RegInit[id.Name] = v & sig.Mask()
						e.design.RegInitX[id.Name] = literalUnknown(x.RHS) & sig.Mask()
					}
				}
			}
			e.checkStmt(x, true)
		case *verilog.NonBlocking:
			e.checkStmt(x, true)
		}
	})
}

// checkTargetOperands validates the indices and part-select bounds of a
// procedural assignment target, whose base checkAssignTarget checks. A
// continuous assignment's target is walked whole by checkExpr instead.
func (e *elaborator) checkTargetOperands(lhs verilog.Expr, pos verilog.Pos) {
	switch x := lhs.(type) {
	case *verilog.Concat:
		for _, el := range x.Elems {
			e.checkTargetOperands(el, pos)
		}
	case *verilog.Index:
		e.checkExpr(x.Idx, pos)
	case *verilog.Slice:
		e.checkExpr(x.Hi, pos)
		e.checkExpr(x.Lo, pos)
		e.checkSlice(x)
	}
}

// checkStmt validates statements; procedural is always true here but kept
// for clarity with checkAssignTarget.
func (e *elaborator) checkStmt(s verilog.Stmt, procedural bool) {
	verilog.WalkStmt(s, func(sub verilog.Stmt) {
		switch x := sub.(type) {
		case *verilog.NonBlocking:
			e.checkAssignTarget(x.LHS, procedural)
			e.checkExpr(x.RHS, x.Pos)
			e.checkTargetOperands(x.LHS, x.Pos)
		case *verilog.Blocking:
			e.checkAssignTarget(x.LHS, procedural)
			e.checkExpr(x.RHS, x.Pos)
			e.checkTargetOperands(x.LHS, x.Pos)
		case *verilog.If:
			e.checkExpr(x.Cond, x.Pos)
		case *verilog.Case:
			e.checkExpr(x.Subject, x.Pos)
			for _, item := range x.Items {
				for _, ce := range item.Exprs {
					e.checkExpr(ce, item.Pos)
				}
			}
		}
	})
}

func (e *elaborator) resolveAssert(a *verilog.AssertItem, props map[string]*verilog.PropertyDecl, idx int) (ResolvedAssert, bool) {
	ra := ResolvedAssert{Name: a.Label, ErrMsg: a.ErrMsg}
	if ra.Name == "" {
		ra.Name = fmt.Sprintf("assert_%d", idx)
	}
	if a.Ref != "" {
		p, ok := props[a.Ref]
		if !ok {
			e.errorf(a.Pos, "assertion references undeclared property %q", a.Ref)
			return ra, false
		}
		if ra.Name == fmt.Sprintf("assert_%d", idx) {
			ra.Name = p.Name
		}
		ra.Clock = p.Clock
		ra.DisableIff = p.DisableIff
		ra.Seq = p.Seq
		return ra, true
	}
	if a.Clock == nil {
		e.errorf(a.Pos, "inline assertion lacks a clocking event")
		return ra, false
	}
	ra.Clock = *a.Clock
	ra.DisableIff = a.DisableIff
	ra.Seq = a.Seq
	if a.DisableIff != nil {
		e.checkExpr(a.DisableIff, a.Pos)
	}
	e.checkSeq(a.Seq, a.Pos)
	return ra, true
}

func (e *elaborator) checkSeq(s *verilog.SeqExpr, pos verilog.Pos) {
	if s == nil {
		e.errorf(pos, "empty property body")
		return
	}
	for _, t := range s.Antecedent {
		e.checkExpr(t.Expr, pos)
	}
	for _, t := range s.Consequent {
		e.checkExpr(t.Expr, pos)
	}
	if len(s.Consequent) == 0 {
		e.errorf(pos, "property has no consequent sequence")
	}
}
