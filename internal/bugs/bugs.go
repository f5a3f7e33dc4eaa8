// Package bugs implements the bug-injection engine that stands in for the
// paper's Claude-3.5 random bug generator (Stage 2 of Fig. 2-I). It
// enumerates typed single-site mutations of a golden module's RTL (never of
// its assertions) and labels every mutation along the three orthogonal axes
// of Table I / Table II:
//
//   - syntactic class: Var (wrong identifier), Value (wrong constant or
//     off-by-one), Op (wrong operator, including added/removed negation);
//   - conditional axis: Cond (the mutation sits in an if condition, case
//     subject or case label) versus Non_cond;
//   - direct axis (resolved later, once the failing assertion is known):
//     Direct when a signal affected by the mutation appears in the failing
//     assertion's property, Indirect otherwise.
package bugs

import (
	"fmt"
	"iter"
	"strings"

	"repro/internal/compile"
	"repro/internal/verilog"
)

// SynClass is the syntactic mutation class of Table I.
type SynClass int

// Syntactic classes. SynReset is the reset-removal / initialisation-
// deletion class: it neutralises one reset-branch assignment (or one
// initial-block initialisation) by making the register keep its own value,
// a bug that is invisible to two-state checking (registers silently
// initialise to zero) and only a four-state checker can validate.
// The hierarchical classes (SynPort, SynParam, SynCdc) mutate the top
// module of a multi-module set — see EnumerateHier: a port miswire feeds
// an instance input from the wrong signal, a parameter perturbation
// elaborates the child at the wrong width or bound, and a CDC mutation
// re-clocks a register bank or child instance into another clock domain
// (only expressible once a design has two domains).
const (
	SynVar SynClass = iota
	SynValue
	SynOp
	SynReset
	SynPort
	SynParam
	SynCdc
)

var synNames = [...]string{"Var", "Value", "Op", "Reset", "Port", "Param", "Cdc"}

// String names the class as in Table I.
func (c SynClass) String() string { return synNames[c] }

// ParseSynClass parses a Table I class name.
func ParseSynClass(s string) (SynClass, error) {
	for i, n := range synNames {
		if n == s {
			return SynClass(i), nil
		}
	}
	return 0, fmt.Errorf("bugs: unknown syntactic class %q", s)
}

// staticallyDetectable records, per class, whether the static analyzer
// (internal/lint) flags EVERY compiling mutant of that class across the
// golden corpus at warning severity or above. The corpus goldens are
// lint-clean, so any such finding is attributable to the injected bug.
// Reset mutations rewrite a reset-branch assignment to a self-assignment,
// which no longer establishes a reset — a structural fingerprint the
// never-reset rule catches unconditionally. Var, Value and Op mutations
// perturb identifiers, constants and operators inside otherwise
// well-formed expressions; a minority incidentally trip width or
// dependency rules (measured 2-7% over the corpus), but the classes as a
// whole are only caught dynamically, by simulation or formal checking.
// TestStaticallyDetectable recomputes this table from the corpus, so it
// cannot silently go stale as rules or families evolve.
var staticallyDetectable = [...]bool{
	SynVar:   false,
	SynValue: false,
	SynOp:    false,
	SynReset: true,
	// The hierarchical classes perturb elaboration inputs, not statement
	// structure: the flattened mutant is well-formed RTL that simply
	// computes the wrong thing (wrong operand, wrong width, wrong clock),
	// so lint has no unconditional fingerprint and detection is dynamic.
	SynPort:  false,
	SynParam: false,
	SynCdc:   false,
}

// StaticallyDetectable reports whether lint alone suffices to catch every
// mutant of this class (see staticallyDetectable for the derivation). A
// repair loop can use this to decide whether a clean lint run rules a
// suspected bug class out without ever simulating.
func (c SynClass) StaticallyDetectable() bool { return staticallyDetectable[c] }

// Mutation is one injected bug: the mutated module plus full labelling and
// the golden/buggy line pair that later forms the dataset "answer".
type Mutation struct {
	Mutant      *verilog.Module
	Syn         SynClass
	IsCond      bool
	Description string
	// LineNo is the 1-based line number of the mutated line in the printed
	// mutant source.
	LineNo int
	// BuggyLine and GoldenLine are the trimmed differing lines of the
	// mutant and golden printed sources.
	BuggyLine  string
	GoldenLine string
	// Affected lists signals whose driving logic the mutation touches,
	// used for the Direct/Indirect classification.
	Affected []string
}

// Label renders the combined taxonomy label (without the direct axis).
func (m *Mutation) Label() string {
	cond := "Non_cond"
	if m.IsCond {
		cond = "Cond"
	}
	return m.Syn.String() + "/" + cond
}

// IsDirect resolves the Table I Direct/Indirect axis: a bug is Direct when
// one of its affected signals appears in the failing assertion's property
// expression signals.
func (m *Mutation) IsDirect(assertSignals []string) bool {
	for _, a := range m.Affected {
		for _, s := range assertSignals {
			if a == s {
				return true
			}
		}
	}
	return false
}

// site context while walking the RTL.
type ctx struct {
	inCond   bool
	affected []string
}

// mutator is one applicable edit discovered at a site. apply performs the
// edit on the live (cloned) AST.
type mutator struct {
	syn   SynClass
	cond  bool
	desc  string
	aff   []string
	apply func()
}

// Stream enumerates every single-site mutation of the module's RTL, up to
// limit (0 = no limit), one at a time. The same golden module always
// yields the same mutations in the same order: enumeration is
// deterministic.
//
// Each yielded mutation owns an independent clone of the module, and the
// string beside it is that clone's printed source. Mutations whose printed
// source equals the golden source (no-ops) are skipped, as are mutations
// that change more than one printed line. A consumer that drops each
// mutant once it is done with it holds one clone at a time.
func Stream(golden *verilog.Module, limit int) iter.Seq2[Mutation, string] {
	widths := signalWidths(golden)
	return enumerate(golden, verilog.Print(golden), limit, func(m *verilog.Module) []mutator {
		return collect(m, widths)
	}, verilog.Print)
}

// Enumerate collects Stream into a list. Every mutation keeps its own
// clone, so the list holds one copy of the module per mutant.
func Enumerate(golden *verilog.Module, limit int) []Mutation {
	return collectAll(Stream(golden, limit))
}

// StreamResets enumerates the SynReset mutations of the module, one at a
// time, like Stream: every reset-branch assignment and every initial-block
// initialisation rewritten to keep the register's own value (cnt <= 0
// becomes cnt <= cnt), which in four-state semantics leaves the register
// x. It is a separate enumeration so the per-design caps applied to the
// classic classes never squeeze the reset class out, and existing mutation
// indices (and therefore dataset sample IDs) stay stable.
func StreamResets(golden *verilog.Module) iter.Seq2[Mutation, string] {
	return enumerate(golden, verilog.Print(golden), 0, collectResets, verilog.Print)
}

// EnumerateResets collects StreamResets into a list.
func EnumerateResets(golden *verilog.Module) []Mutation {
	return collectAll(StreamResets(golden))
}

// collectAll gathers a mutation stream into a list, dropping the printed
// sources.
func collectAll(seq iter.Seq2[Mutation, string]) []Mutation {
	var out []Mutation
	for mu := range seq {
		out = append(out, mu)
	}
	return out
}

// enumerate is the clone/apply/single-line-diff pipeline shared by every
// bug class. It runs the mutator collector on a fresh clone of top per
// site, applies that site's edit, prints the clone with render and yields
// it when it differs from goldenSrc in exactly one line.
func enumerate(top *verilog.Module, goldenSrc string, limit int, collect func(*verilog.Module) []mutator, render func(*verilog.Module) string) iter.Seq2[Mutation, string] {
	return func(yield func(Mutation, string) bool) {
		// First pass: count sites by running the collector on a throwaway clone.
		n := len(collect(verilog.CloneModule(top)))
		if limit > 0 && n > limit {
			n = limit
		}
		for i := 0; i < n; i++ {
			clone := verilog.CloneModule(top)
			muts := collect(clone)
			if i >= len(muts) {
				return
			}
			mu := muts[i]
			mu.apply()
			mutSrc := render(clone)
			lineNo, goldenLine, buggyLine, nDiff := diffLines(goldenSrc, mutSrc)
			if nDiff != 1 {
				continue // no-op or multi-line edit
			}
			if !yield(Mutation{
				Mutant:      clone,
				Syn:         mu.syn,
				IsCond:      mu.cond,
				Description: mu.desc,
				LineNo:      lineNo,
				BuggyLine:   strings.Clone(buggyLine), // a substring would pin the whole printed source
				GoldenLine:  strings.Clone(goldenLine),
				Affected:    mu.aff,
			}, mutSrc) {
				return
			}
		}
	}
}

// signalWidths maps signal names to widths for compatible-identifier
// substitution, without requiring full elaboration.
func signalWidths(m *verilog.Module) map[string]int {
	w := map[string]int{}
	widthOf := func(r *verilog.Range) int {
		if r == nil {
			return 1
		}
		hi, okh := r.Hi.(*verilog.Number)
		lo, okl := r.Lo.(*verilog.Number)
		if okh && okl && hi.Value >= lo.Value {
			return int(hi.Value-lo.Value) + 1
		}
		return 0 // parameterised width: unknown
	}
	for _, p := range m.Ports {
		w[p.Name] = widthOf(p.Range)
	}
	for _, it := range m.Items {
		if nd, ok := it.(*verilog.NetDecl); ok {
			for _, name := range nd.Names {
				if _, exists := w[name]; !exists {
					w[name] = widthOf(nd.Range)
				}
			}
		}
	}
	return w
}

// collect walks the module's RTL (clone) and returns the mutators in
// deterministic order. The mutators close over nodes of this clone.
func collect(m *verilog.Module, widths map[string]int) []mutator {
	c := &collector{widths: widths, module: m}
	for _, it := range m.Items {
		switch x := it.(type) {
		case *verilog.AssignItem:
			aff := lhsSignals(x.LHS)
			c.expr(&x.RHS, ctx{affected: aff})
		case *verilog.Always:
			c.stmt(&x.Body, ctx{})
		}
	}
	return c.muts
}

type collector struct {
	widths map[string]int
	module *verilog.Module
	muts   []mutator
}

func (c *collector) add(m mutator) { c.muts = append(c.muts, m) }

// stmt walks a statement, tracking the affected signals for expression
// sites beneath it.
func (c *collector) stmt(sp *verilog.Stmt, cx ctx) {
	switch x := (*sp).(type) {
	case *verilog.Block:
		for i := range x.Stmts {
			c.stmt(&x.Stmts[i], cx)
		}
	case *verilog.NonBlocking:
		aff := lhsSignals(x.LHS)
		c.expr(&x.RHS, ctx{affected: aff})
		c.rhsOffByOne(&x.RHS, aff)
	case *verilog.Blocking:
		aff := lhsSignals(x.LHS)
		c.expr(&x.RHS, ctx{affected: aff})
		c.rhsOffByOne(&x.RHS, aff)
	case *verilog.If:
		aff := assignedBelow(x.Then)
		aff = append(aff, assignedBelow(x.Else)...)
		// Negating the whole condition is the canonical Cond bug (Fig. 1).
		cond := &x.Cond
		affCopy := dedup(aff)
		c.add(mutator{
			syn:  SynOp,
			cond: true,
			desc: "negated if-condition",
			aff:  affCopy,
			apply: func() {
				if un, ok := (*cond).(*verilog.Unary); ok && un.Op == verilog.UnaryLogicalNot {
					*cond = un.X
				} else {
					*cond = &verilog.Unary{Op: verilog.UnaryLogicalNot, X: *cond}
				}
			},
		})
		c.expr(&x.Cond, ctx{inCond: true, affected: affCopy})
		c.stmt(&x.Then, cx)
		if x.Else != nil {
			c.stmt(&x.Else, cx)
		}
	case *verilog.Case:
		aff := dedup(assignedBelow(x))
		c.expr(&x.Subject, ctx{inCond: true, affected: aff})
		for i := range x.Items {
			item := &x.Items[i]
			for j := range item.Exprs {
				c.expr(&item.Exprs[j], ctx{inCond: true, affected: dedup(assignedBelow(item.Body))})
			}
			c.stmt(&item.Body, cx)
		}
	}
}

// rhsOffByOne registers the Table I "out <= in + 1" style bug on whole
// assignment right-hand sides that are not already arithmetic.
func (c *collector) rhsOffByOne(rhs *verilog.Expr, aff []string) {
	if _, ok := (*rhs).(*verilog.Binary); ok {
		return // operator sites below already cover arithmetic RHS
	}
	if _, ok := (*rhs).(*verilog.Number); ok {
		return // constant sites cover literals
	}
	target := rhs
	c.add(mutator{
		syn:  SynValue,
		cond: false,
		desc: "off-by-one on assignment RHS",
		aff:  append([]string(nil), aff...),
		apply: func() {
			*target = &verilog.Binary{Op: verilog.BinAdd, X: *target, Y: &verilog.Number{Value: 1}}
		},
	})
}

// expr walks an expression tree registering mutators for every site.
func (c *collector) expr(ep *verilog.Expr, cx ctx) {
	switch x := (*ep).(type) {
	case *verilog.Ident:
		c.identSite(ep, x, cx)
	case *verilog.Number:
		c.numberSite(x, cx)
	case *verilog.Unary:
		c.unarySite(ep, x, cx)
		c.expr(&x.X, cx)
	case *verilog.Binary:
		c.binarySite(x, cx)
		c.expr(&x.X, cx)
		c.expr(&x.Y, cx)
	case *verilog.Ternary:
		c.expr(&x.Cond, ctx{inCond: true, affected: cx.affected})
		c.expr(&x.X, cx)
		c.expr(&x.Y, cx)
	case *verilog.Index:
		c.expr(&x.Idx, cx)
	case *verilog.Slice:
		// Slice bounds stay fixed: mutating them usually breaks elaboration.
	case *verilog.Concat:
		for i := range x.Elems {
			c.expr(&x.Elems[i], cx)
		}
	case *verilog.Repl:
		c.expr(&x.Elem, cx)
	case *verilog.Call:
		for i := range x.Args {
			c.expr(&x.Args[i], cx)
		}
	}
}

// identSite substitutes another signal for the referenced identifier.
// Same-width signals are preferred (subtle bugs); when none exist one
// differing-width substitution is registered, mirroring the Table I "Var"
// example where a wrong name also changes the width.
func (c *collector) identSite(ep *verilog.Expr, x *verilog.Ident, cx ctx) {
	w, known := c.widths[x.Name]
	if !known {
		return // parameter or localparam reference: leave to numberSite-like swaps
	}
	candidates := func(sameWidth bool, limit int) int {
		count := 0
		consider := func(cand string) bool {
			if cand == x.Name || compile.IsClockOrReset(cand) {
				return false
			}
			if sameWidth != (c.widths[cand] == w) {
				return false
			}
			c.addIdentSwap(ep, x.Name, cand, cx)
			count++
			return count >= limit
		}
		for _, p := range c.module.Ports {
			if consider(p.Name) {
				return count
			}
		}
		for _, it := range c.module.Items {
			nd, ok := it.(*verilog.NetDecl)
			if !ok {
				continue
			}
			for _, cand := range nd.Names {
				if consider(cand) {
					return count
				}
			}
		}
		return count
	}
	// One substitution per site keeps the Table II class mix close to the
	// paper's (Value > Op > Var): identifiers appear at far more sites than
	// constants, so unbounded swapping would invert the distribution.
	if candidates(true, 1) == 0 {
		candidates(false, 1)
	}
}

func (c *collector) addIdentSwap(ep *verilog.Expr, from, to string, cx ctx) {
	target := ep
	c.add(mutator{
		syn:  SynVar,
		cond: cx.inCond,
		desc: fmt.Sprintf("replaced signal %s with %s", from, to),
		aff:  append([]string(nil), cx.affected...),
		apply: func() {
			*target = &verilog.Ident{Name: to}
		},
	})
}

// numberSite perturbs a constant: +1, -1 (when nonzero), and lowest-bit
// flip for multi-bit literals.
func (c *collector) numberSite(x *verilog.Number, cx ctx) {
	base := x.Value
	mask := ^uint64(0)
	if x.Width > 0 && x.Width < 64 {
		mask = (uint64(1) << uint(x.Width)) - 1
	}
	node := x
	c.add(mutator{
		syn:  SynValue,
		cond: cx.inCond,
		desc: fmt.Sprintf("constant %d changed to %d", base, (base+1)&mask),
		aff:  append([]string(nil), cx.affected...),
		apply: func() {
			node.Value = (base + 1) & mask
		},
	})
	if base > 0 {
		c.add(mutator{
			syn:  SynValue,
			cond: cx.inCond,
			desc: fmt.Sprintf("constant %d changed to %d", base, (base-1)&mask),
			aff:  append([]string(nil), cx.affected...),
			apply: func() {
				node.Value = (base - 1) & mask
			},
		})
	}
	// Bit-weight error (doubled constant), a classic transcription bug,
	// registered when it produces a fresh value.
	if doubled := (base << 1) & mask; doubled != base && doubled != (base+1)&mask && base > 0 {
		c.add(mutator{
			syn:  SynValue,
			cond: cx.inCond,
			desc: fmt.Sprintf("constant %d changed to %d", base, doubled),
			aff:  append([]string(nil), cx.affected...),
			apply: func() {
				node.Value = doubled
			},
		})
	}
}

// unarySite removes a logical negation or swaps reduction operators.
func (c *collector) unarySite(ep *verilog.Expr, x *verilog.Unary, cx ctx) {
	target := ep
	switch x.Op {
	case verilog.UnaryLogicalNot:
		inner := x.X
		c.add(mutator{
			syn:  SynOp,
			cond: cx.inCond,
			desc: "removed logical negation",
			aff:  append([]string(nil), cx.affected...),
			apply: func() {
				*target = inner
			},
		})
	case verilog.UnaryRedAnd:
		node := x
		c.add(mutator{
			syn:  SynOp,
			cond: cx.inCond,
			desc: "reduction AND changed to reduction OR",
			aff:  append([]string(nil), cx.affected...),
			apply: func() {
				node.Op = verilog.UnaryRedOr
			},
		})
	case verilog.UnaryRedOr:
		node := x
		c.add(mutator{
			syn:  SynOp,
			cond: cx.inCond,
			desc: "reduction OR changed to reduction AND",
			aff:  append([]string(nil), cx.affected...),
			apply: func() {
				node.Op = verilog.UnaryRedAnd
			},
		})
	case verilog.UnaryRedXor:
		node := x
		c.add(mutator{
			syn:  SynOp,
			cond: cx.inCond,
			desc: "reduction XOR changed to reduction XNOR",
			aff:  append([]string(nil), cx.affected...),
			apply: func() {
				node.Op = verilog.UnaryRedXnor
			},
		})
	}
}

// opAlternates maps each binary operator to its Table I style misuses.
var opAlternates = map[verilog.BinaryOp][]verilog.BinaryOp{
	verilog.BinAdd:    {verilog.BinSub},
	verilog.BinSub:    {verilog.BinAdd},
	verilog.BinAnd:    {verilog.BinOr, verilog.BinXor},
	verilog.BinOr:     {verilog.BinAnd, verilog.BinXor},
	verilog.BinXor:    {verilog.BinAnd, verilog.BinOr},
	verilog.BinEq:     {verilog.BinNe},
	verilog.BinNe:     {verilog.BinEq},
	verilog.BinLt:     {verilog.BinLe, verilog.BinGt},
	verilog.BinLe:     {verilog.BinLt, verilog.BinGe},
	verilog.BinGt:     {verilog.BinGe, verilog.BinLt},
	verilog.BinGe:     {verilog.BinGt, verilog.BinLe},
	verilog.BinLogAnd: {verilog.BinLogOr},
	verilog.BinLogOr:  {verilog.BinLogAnd},
	verilog.BinShl:    {verilog.BinShr},
	verilog.BinShr:    {verilog.BinShl},
}

func (c *collector) binarySite(x *verilog.Binary, cx ctx) {
	alts, ok := opAlternates[x.Op]
	if !ok {
		return
	}
	for _, alt := range alts {
		node, from, to := x, x.Op, alt
		c.add(mutator{
			syn:  SynOp,
			cond: cx.inCond,
			desc: fmt.Sprintf("operator %s misused as %s", from, to),
			aff:  append([]string(nil), cx.affected...),
			apply: func() {
				node.Op = to
			},
		})
	}
}

// collectResets walks the module (clone) and returns SynReset mutators:
// one per whole-register assignment inside a reset branch of an
// edge-sensitive always block, and one per constant initialisation inside
// an initial block. Each rewrites the right-hand side to the register
// itself, so the reset (or initialisation) no longer establishes a value —
// under four-state semantics the register stays x.
func collectResets(m *verilog.Module) []mutator {
	var muts []mutator
	keepSelf := func(what string, lhs verilog.Expr, rhs *verilog.Expr) {
		id, ok := lhs.(*verilog.Ident)
		if !ok {
			return // only whole-register resets; bit/slice resets are rare
		}
		if r, ok := (*rhs).(*verilog.Ident); ok && r.Name == id.Name {
			return // already a self-assignment: mutation would be a no-op
		}
		name := id.Name
		target := rhs
		muts = append(muts, mutator{
			syn:  SynReset,
			cond: false,
			desc: fmt.Sprintf("removed %s of %s (register keeps its value)", what, name),
			aff:  []string{name},
			apply: func() {
				*target = &verilog.Ident{Name: name}
			},
		})
	}
	branchResets := func(branch verilog.Stmt) {
		verilog.WalkStmt(branch, func(sub verilog.Stmt) {
			switch x := sub.(type) {
			case *verilog.NonBlocking:
				keepSelf("reset", x.LHS, &x.RHS)
			case *verilog.Blocking:
				keepSelf("reset", x.LHS, &x.RHS)
			}
		})
	}
	for _, it := range m.Items {
		switch x := it.(type) {
		case *verilog.Always:
			seq := false
			for _, ev := range x.Events {
				if ev.Edge != verilog.EdgeAny {
					seq = true
				}
			}
			if !seq {
				continue
			}
			verilog.WalkStmt(x.Body, func(sub verilog.Stmt) {
				ifs, ok := sub.(*verilog.If)
				if !ok {
					return
				}
				if branch := resetBranchOf(ifs); branch != nil {
					branchResets(branch)
				}
			})
		case *verilog.Initial:
			verilog.WalkStmt(x.Body, func(sub verilog.Stmt) {
				if b, ok := sub.(*verilog.Blocking); ok {
					keepSelf("initialisation", b.LHS, &b.RHS)
				}
			})
		}
	}
	return muts
}

// resetBranchOf returns the branch of an if statement executed while reset
// is active, or nil when the condition is not a recognisable reset test.
// Reset-branch recognition is shared with the lint never-reset rule through
// compile.ResetBranch, so the two can never disagree.
func resetBranchOf(ifs *verilog.If) verilog.Stmt {
	branch, ok := compile.ResetBranch(ifs)
	if !ok {
		return nil
	}
	return branch
}

// lhsSignals extracts the base signal names of an assignment target.
func lhsSignals(lhs verilog.Expr) []string {
	var out []string
	verilog.WalkExpr(lhs, func(e verilog.Expr) {
		if id, ok := e.(*verilog.Ident); ok {
			out = append(out, id.Name)
		}
	})
	return dedup(out)
}

// assignedBelow lists all signals assigned anywhere beneath a statement.
func assignedBelow(s verilog.Stmt) []string {
	var out []string
	verilog.WalkStmt(s, func(sub verilog.Stmt) {
		switch x := sub.(type) {
		case *verilog.NonBlocking:
			out = append(out, lhsSignals(x.LHS)...)
		case *verilog.Blocking:
			out = append(out, lhsSignals(x.LHS)...)
		}
	})
	return dedup(out)
}

func dedup(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// diffLines compares two printed sources and returns the 1-based line
// number of the first difference, the golden and mutant line texts
// (trimmed), and the total number of differing lines.
func diffLines(golden, mutant string) (lineNo int, goldenLine, buggyLine string, nDiff int) {
	gl := strings.Split(golden, "\n")
	ml := strings.Split(mutant, "\n")
	n := len(gl)
	if len(ml) > n {
		n = len(ml)
	}
	for i := 0; i < n; i++ {
		var g, mline string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(ml) {
			mline = ml[i]
		}
		if g != mline {
			nDiff++
			if lineNo == 0 {
				lineNo = i + 1
				goldenLine = strings.TrimSpace(g)
				buggyLine = strings.TrimSpace(mline)
			}
		}
	}
	return lineNo, goldenLine, buggyLine, nDiff
}

// DiffLines exposes the printed-source diff for other packages (the judge
// and the CoT validator use it).
func DiffLines(golden, mutant string) (lineNo int, goldenLine, buggyLine string, nDiff int) {
	return diffLines(golden, mutant)
}
