package lint

import (
	"repro/internal/compile"
	"repro/internal/verilog"
)

// constEnv resolves parameters and lint-proved constant signals for
// compile.FoldKnown, a name declared as a signal at its declared width and
// any other at 32 bits; every other name has no value, which is exactly
// the conservatism the fixpoint needs — an expression only folds when all
// of its inputs are proved.
type constEnv struct {
	d      *compile.Design
	consts map[string]uint64
}

// Lookup implements compile.Names.
func (e constEnv) Lookup(name string) (uint64, int, bool) {
	w := 32
	if sig := e.d.Signals[name]; sig != nil {
		w = sig.Width
	}
	if v, ok := e.d.Params[name]; ok {
		return v, w, true
	}
	v, ok := e.consts[name]
	return v, w, ok
}

// constants proves signals constant by iterating intra-module constant
// propagation to a fixpoint, then uses the proved set to fold if conditions
// into dead-branch claims. The proofs are deliberately sound rather than
// complete: a signal qualifies only when one non-partial driver writes it,
// every written value folds (fully known) to the same constant, and the
// value is established from the very first observable cycle — assigned on
// all paths for a combinational block, or matching a fully-known declared
// initial for a sequential one. The differential harness leans on that
// soundness: each claim is checked against real traces in both value
// domains.
func (a *analysis) constants() {
	a.res.Consts = map[string]uint64{}
	env := constEnv{a.d, a.res.Consts}
	for changed := true; changed; {
		changed = false
		for _, name := range a.d.Order {
			if _, done := a.res.Consts[name]; done {
				continue
			}
			if v, ok := a.proveConst(name, env); ok {
				a.res.Consts[name] = v
				changed = true
			}
		}
	}
	for _, name := range a.d.Order {
		if v, ok := a.res.Consts[name]; ok {
			a.addf(RuleConstSignal, Info, posOf(a.drivers[name], a.d, name), name,
				"always holds the constant value %d", v)
		}
	}
	a.deadBranches(env)
}

// proveConst attempts to prove one signal constant under the current
// proved set.
func (a *analysis) proveConst(name string, env constEnv) (uint64, bool) {
	sig := a.d.Signals[name]
	if sig.Kind == compile.SigInput {
		return 0, false
	}
	ds := a.drivers[name]
	if len(ds) != 1 || ds[0].Partial {
		return 0, false
	}
	dr := ds[0]

	var sites []verilog.Expr
	switch dr.Kind {
	case compile.DriverAssign:
		sites = []verilog.Expr{dr.Assign.RHS}
	case compile.DriverComb, compile.DriverSeq:
		whole := true
		verilog.WalkStmt(dr.Always.Body, func(s verilog.Stmt) {
			var lhs, rhs verilog.Expr
			switch x := s.(type) {
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
			if id, ok := lhs.(*verilog.Ident); !ok || id.Name != name {
				whole = false // bit/slice/concat write: value not wholly determined
				return
			}
			sites = append(sites, rhs)
		})
		if !whole || len(sites) == 0 {
			return 0, false
		}
	}

	var c uint64
	for i, rhs := range sites {
		val, ok := compile.FoldKnown(rhs, env)
		if !ok {
			return 0, false
		}
		val &= sig.Mask()
		if i == 0 {
			c = val
		} else if val != c {
			return 0, false
		}
	}

	switch dr.Kind {
	case compile.DriverComb:
		// The block must establish the value on every path of every settle
		// pass; otherwise the signal can retain stale state.
		if !assignedOnAllPaths(dr.Always.Body)[name] {
			return 0, false
		}
	case compile.DriverSeq:
		// The register must start at the constant: a fully-known declared
		// initial equal to every written value. Without it, the register is
		// 0 (two-state) or x (four-state) until the first write.
		init, ok := a.d.RegInit[name]
		if !ok || a.d.RegInitX[name] != 0 || init&sig.Mask() != c {
			return 0, false
		}
	}
	return c, true
}

// deadBranches folds if conditions over the proved-constant environment.
// A condition that evaluates to a fully-known value makes one branch
// unreachable. Initial blocks are skipped: the simulators do not execute
// them (only their constant-foldable effects survive elaboration), so there
// is no dynamic twin to check a claim against.
func (a *analysis) deadBranches(env constEnv) {
	procs := append(append([]*verilog.Always{}, a.d.CombAlways...), a.d.SeqAlways...)
	for _, al := range procs {
		verilog.WalkStmt(al.Body, func(s verilog.Stmt) {
			ifs, ok := s.(*verilog.If)
			if !ok {
				return
			}
			v, ok := compile.FoldKnown(ifs.Cond, env)
			if !ok {
				return
			}
			dead := DeadBranch{Pos: ifs.Pos, Then: v == 0}
			a.res.Dead = append(a.res.Dead, dead)
			side, never := "true", "else"
			if dead.Then {
				side, never = "false", "then"
			}
			a.addf(RuleDeadBranch, Warning, ifs.Pos, "",
				"condition is constant %s; the %s branch never executes", side, never)
		})
	}
}
