package lint

import (
	"repro/internal/compile"
	"repro/internal/verilog"
)

// latches flags signals a combinational always block assigns on some paths
// but not all: on the unassigned paths the signal keeps its previous value,
// inferring a latch.
func (a *analysis) latches() {
	for _, al := range a.d.CombAlways {
		definite := assignedOnAllPaths(al.Body)
		// Deterministic signal order: Design.Order restricted to signals
		// this block drives.
		for _, name := range a.d.Order {
			driven := false
			for _, dr := range a.drivers[name] {
				if dr.Always == al {
					driven = true
				}
			}
			if !driven || definite[name] {
				continue
			}
			a.addf(RuleLatch, Warning, al.Pos, name,
				"not assigned on every path of this combinational block (latch inferred)")
		}
	}
}

// assignedOnAllPaths computes the set of signals assigned on every
// execution path of a statement. An if without else contributes nothing; a
// case counts only when it has a default arm — full label coverage without
// a default still leaves the subject's x values unmatched in four-state
// simulation, where no arm executes and the signal latches. Bit/slice and
// concat-element writes count as assignments: they choose a value for the
// addressed bits on that path (the untouched bits are a narrower concern
// this rule deliberately does not model).
func assignedOnAllPaths(s verilog.Stmt) map[string]bool {
	switch x := s.(type) {
	case nil:
		return map[string]bool{}
	case *verilog.Block:
		out := map[string]bool{}
		for _, sub := range x.Stmts {
			for name := range assignedOnAllPaths(sub) {
				out[name] = true
			}
		}
		return out
	case *verilog.Blocking:
		return lhsNames(x.LHS)
	case *verilog.NonBlocking:
		return lhsNames(x.LHS)
	case *verilog.If:
		if x.Else == nil {
			return map[string]bool{}
		}
		return intersect(assignedOnAllPaths(x.Then), assignedOnAllPaths(x.Else))
	case *verilog.Case:
		var sets []map[string]bool
		hasDefault := false
		for _, item := range x.Items {
			if item.Exprs == nil {
				hasDefault = true
			}
			sets = append(sets, assignedOnAllPaths(item.Body))
		}
		if !hasDefault || len(sets) == 0 {
			return map[string]bool{}
		}
		out := sets[0]
		for _, s := range sets[1:] {
			out = intersect(out, s)
		}
		return out
	}
	return map[string]bool{}
}

// lhsNames returns the base signals written by an assignment target.
// Index and bound expressions also contain idents, so this walks target
// structure rather than all idents.
func lhsNames(lhs verilog.Expr) map[string]bool {
	bases := map[string]bool{}
	var walk func(e verilog.Expr)
	walk = func(e verilog.Expr) {
		switch x := e.(type) {
		case *verilog.Ident:
			bases[x.Name] = true
		case *verilog.Index:
			walk(x.X)
		case *verilog.Slice:
			walk(x.X)
		case *verilog.Concat:
			for _, el := range x.Elems {
				walk(el)
			}
		}
	}
	walk(lhs)
	return bases
}

// writes reports whether an assignment target writes the named base
// signal, the same answer as lhsNames(lhs)[name] without building the set.
func writes(lhs verilog.Expr, name string) bool {
	switch x := lhs.(type) {
	case *verilog.Ident:
		return x.Name == name
	case *verilog.Index:
		return writes(x.X, name)
	case *verilog.Slice:
		return writes(x.X, name)
	case *verilog.Concat:
		for _, el := range x.Elems {
			if writes(el, name) {
				return true
			}
		}
	}
	return false
}

func intersect(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for name := range a {
		if b[name] {
			out[name] = true
		}
	}
	return out
}

// neverReset flags registers driven exclusively by sequential logic that
// have neither a declared initial value nor a reset-branch assignment
// establishing one: in four-state simulation they start x and stay x until
// ordinary data flow happens to overwrite them. The severity is Warning
// when the design has a reset input (the author had a reset and did not use
// it for this register) and Info otherwise (reset-less designs initialise
// through data flow by construction). A reset-branch self-assignment
// (r <= r) does not establish a reset — that is exactly the rewrite the
// SynReset bug class injects — and more generally any reset-branch
// right-hand side that reads the register itself keeps the x.
func (a *analysis) neverReset() {
	sevFor := Info
	if a.d.Reset().Present {
		sevFor = Warning
	}
	for _, name := range a.d.Order {
		sig := a.d.Signals[name]
		if !sig.IsReg || sig.Kind == compile.SigInput {
			continue
		}
		ds := a.drivers[name]
		seqOnly := true
		for _, dr := range ds {
			if dr.Kind != compile.DriverSeq {
				seqOnly = false
			}
		}
		if !seqOnly {
			continue // combinationally driven: latch/multi-driver territory
		}
		initX := a.d.RegInitX[name]
		if _, hasInit := a.d.RegInit[name]; hasInit && initX != sig.Mask() {
			continue // at least one known initial bit establishes state
		}
		if a.resetEstablished(name, ds) {
			continue
		}
		detail := "never reset or initialised; starts x in four-state simulation"
		if len(ds) == 0 {
			detail = "never driven; reads x in four-state simulation"
		}
		a.addf(RuleNeverReset, sevFor, posOf(ds, a.d, name), name, "%s", detail)
		a.res.NeverReset = append(a.res.NeverReset, name)
	}
}

// resetEstablished reports whether any reset branch in the register's
// sequential drivers assigns it a value that does not read the register
// itself.
func (a *analysis) resetEstablished(name string, ds []compile.Driver) bool {
	found := false
	for _, dr := range ds {
		if dr.Kind != compile.DriverSeq || dr.Always == nil {
			continue
		}
		verilog.WalkStmt(dr.Always.Body, func(sub verilog.Stmt) {
			ifs, ok := sub.(*verilog.If)
			if !ok {
				return
			}
			branch, ok := compile.ResetBranch(ifs)
			if !ok || branch == nil {
				return
			}
			verilog.WalkStmt(branch, func(rs verilog.Stmt) {
				var lhs, rhs verilog.Expr
				switch x := rs.(type) {
				case *verilog.Blocking:
					lhs, rhs = x.LHS, x.RHS
				case *verilog.NonBlocking:
					lhs, rhs = x.LHS, x.RHS
				default:
					return
				}
				if !writes(lhs, name) {
					return
				}
				if verilog.ExprIdents(rhs)[name] {
					return // r <= r (or r+1, ...): keeps the x
				}
				found = true
			})
		})
	}
	return found
}

// posOf picks a representative position for a signal finding: its first
// driver, falling back to the module.
func posOf(ds []compile.Driver, d *compile.Design, name string) verilog.Pos {
	if len(ds) > 0 {
		return ds[0].Pos
	}
	for _, it := range d.Module.Items {
		if nd, ok := it.(*verilog.NetDecl); ok {
			for _, n := range nd.Names {
				if n == name {
					return nd.Pos
				}
			}
		}
	}
	return d.Module.Pos
}
