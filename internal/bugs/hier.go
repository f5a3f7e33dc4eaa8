package bugs

import (
	"fmt"
	"iter"
	"slices"
	"strings"

	"repro/internal/compile"
	"repro/internal/verilog"
)

// This file adds the hierarchical bug classes opened by elaboration:
// instance port miswiring, wrong parameter overrides, and clock-domain
// crossing bugs. All three mutate the TOP module of a source set — the
// children stay golden — so a mutant design ships as the unchanged
// children plus the mutated top (corpus.Blueprint.SourceWith).

// childPorts indexes the resolvable ports of every non-top module by
// module name, in declaration order, for direction/width checks and for
// resolving positional connections.
type childPorts map[string][]*verilog.Port

// StreamHier enumerates every single-site hierarchical mutation of the
// set's top module, one at a time like Stream: SynPort connection
// miswires, SynParam override perturbations, and — when the top drives at
// least two distinct clocks — SynCdc re-clocking bugs. Enumeration is
// deterministic; mutations whose printed set differs from the golden set
// by anything other than exactly one line are skipped, like the flat
// classes. The string beside each mutation is the printed mutant set: the
// children in set order, then the mutated top.
func StreamHier(set *verilog.SourceSet, limit int) iter.Seq2[Mutation, string] {
	top, err := set.Top()
	if err != nil || top == nil {
		return func(func(Mutation, string) bool) {}
	}
	children := childPorts{}
	var childMods []*verilog.Module
	for _, m := range set.Modules {
		if m != top {
			children[m.Name] = m.Ports
			childMods = append(childMods, m)
		}
	}
	render := func(clone *verilog.Module) string {
		return verilog.PrintSet(&verilog.SourceSet{Modules: append(append([]*verilog.Module{}, childMods...), clone)})
	}
	return enumerate(top, verilog.PrintSet(set), limit, func(m *verilog.Module) []mutator {
		return collectHier(m, children)
	}, render)
}

// EnumerateHier collects StreamHier into a list.
func EnumerateHier(set *verilog.SourceSet, limit int) []Mutation {
	return collectAll(StreamHier(set, limit))
}

// collectHier gathers the hierarchical mutators of one (cloned) top
// module. Deterministic: sites are visited in item order.
func collectHier(m *verilog.Module, children childPorts) []mutator {
	var muts []mutator
	clocks := topClocks(m, children)
	widths := signalWidths(m)
	cands := rewireCandidates(m, children, clocks)
	for _, it := range m.Items {
		switch x := it.(type) {
		case *verilog.Instance:
			inst := x
			ports := children[inst.Module]
			muts = append(muts, portSwaps(inst, ports)...)
			muts = append(muts, portRewires(inst, ports, widths, cands)...)
			muts = append(muts, paramPerturbs(inst, ports)...)
			if len(clocks) >= 2 {
				muts = append(muts, connReclocks(inst, ports, clocks)...)
			}
		case *verilog.Always:
			if len(clocks) >= 2 {
				muts = append(muts, alwaysReclocks(x, m, clocks)...)
			}
		}
	}
	return muts
}

// rewireCandidates collects the identifiers an input connection can be
// miswired to: the top module's data input ports plus every identifier
// already wired into some instance input. Clocks and resets are excluded —
// those miswires are the SynCdc class's territory.
func rewireCandidates(m *verilog.Module, children childPorts, clocks []string) []string {
	seen := map[string]bool{}
	var out []string
	add := func(name string) {
		lower := strings.ToLower(name)
		if name == "" || seen[name] || compile.IsClockOrReset(name) || slices.Contains(clocks, name) ||
			strings.Contains(lower, "rst") || strings.Contains(lower, "reset") {
			return
		}
		seen[name] = true
		out = append(out, name)
	}
	for _, p := range m.Ports {
		if p.Dir == verilog.DirInput {
			add(p.Name)
		}
	}
	for _, it := range m.Items {
		x, ok := it.(*verilog.Instance)
		if !ok {
			continue
		}
		ports := children[x.Module]
		for i, pc := range x.Conns {
			p := connPort(x, ports, i)
			if p == nil || p.Dir != verilog.DirInput {
				continue
			}
			if ident, ok := pc.Expr.(*verilog.Ident); ok {
				add(ident.Name)
			}
		}
	}
	return out
}

// portRewires yields SynPort mutators for instances too small to have a
// swappable pair: one input connection refed from a different same-width
// signal (a gating term dropped, a sibling's strobe pasted in, a
// synchronizer stage bypassed).
func portRewires(inst *verilog.Instance, ports []*verilog.Port, widths map[string]int, cands []string) []mutator {
	var muts []mutator
	aff := instOutputs(inst, ports)
	for i := range inst.Conns {
		p := connPort(inst, ports, i)
		if p == nil || p.Dir != verilog.DirInput || compile.IsClockOrReset(p.Name) || compile.IsClock(p.Name) {
			continue
		}
		from, ok := inst.Conns[i].Expr.(*verilog.Ident)
		if !ok {
			continue
		}
		for _, c := range cands {
			if c == from.Name || widths[c] != widths[from.Name] {
				continue
			}
			i, c := i, c
			muts = append(muts, mutator{
				syn: SynPort,
				desc: fmt.Sprintf("instance %s: input .%s rewired from %s to %s",
					inst.Name, p.Name, from.Name, c),
				aff: aff,
				apply: func() {
					inst.Conns[i].Expr = &verilog.Ident{Name: c}
				},
			})
		}
	}
	return muts
}

// connPort resolves the child port a connection binds: by name for named
// connections, by position otherwise.
func connPort(inst *verilog.Instance, ports []*verilog.Port, i int) *verilog.Port {
	if inst.Positional {
		if i < len(ports) {
			return ports[i]
		}
		return nil
	}
	for _, p := range ports {
		if p.Name == inst.Conns[i].Port {
			return p
		}
	}
	return nil
}

// rangeKey renders a port range for width comparison. Two ports of the
// same instance share a parameter environment, so equal printed ranges
// mean equal elaborated widths.
func rangeKey(r *verilog.Range) string {
	if r == nil {
		return ""
	}
	return verilog.ExprString(r.Hi) + ":" + verilog.ExprString(r.Lo)
}

// instOutputs lists the top-level signals an instance drives, the affected
// set of every hierarchical mutation on that instance.
func instOutputs(inst *verilog.Instance, ports []*verilog.Port) []string {
	var out []string
	for i, pc := range inst.Conns {
		p := connPort(inst, ports, i)
		if p == nil || p.Dir != verilog.DirOutput || pc.Expr == nil {
			continue
		}
		out = append(out, lhsSignals(pc.Expr)...)
	}
	return dedup(out)
}

// portSwaps yields SynPort mutators: swap the expressions of two input
// connections of equal width (clock/reset ports excluded). Because the
// children are golden and the swap stays within one instance's inputs, the
// mutant always elaborates — the data just flows into the wrong port.
func portSwaps(inst *verilog.Instance, ports []*verilog.Port) []mutator {
	var muts []mutator
	aff := instOutputs(inst, ports)
	for i := 0; i < len(inst.Conns); i++ {
		pi := connPort(inst, ports, i)
		if pi == nil || pi.Dir != verilog.DirInput || compile.IsClockOrReset(pi.Name) || inst.Conns[i].Expr == nil {
			continue
		}
		for j := i + 1; j < len(inst.Conns); j++ {
			pj := connPort(inst, ports, j)
			if pj == nil || pj.Dir != verilog.DirInput || compile.IsClockOrReset(pj.Name) || inst.Conns[j].Expr == nil {
				continue
			}
			if rangeKey(pi.Range) != rangeKey(pj.Range) {
				continue
			}
			if verilog.ExprString(inst.Conns[i].Expr) == verilog.ExprString(inst.Conns[j].Expr) {
				continue
			}
			i, j := i, j
			muts = append(muts, mutator{
				syn: SynPort,
				desc: fmt.Sprintf("instance %s: swapped the .%s and .%s connections",
					inst.Name, pi.Name, pj.Name),
				aff: aff,
				apply: func() {
					inst.Conns[i].Expr, inst.Conns[j].Expr = inst.Conns[j].Expr, inst.Conns[i].Expr
				},
			})
		}
	}
	return muts
}

// paramPerturbs yields SynParam mutators: a numeric parameter override
// nudged by one in each direction (never below one, so widths stay
// legal). An off-by-one WIDTH override truncates or pads every port of
// the instance — the parameter-width-mismatch bug.
func paramPerturbs(inst *verilog.Instance, ports []*verilog.Port) []mutator {
	var muts []mutator
	aff := instOutputs(inst, ports)
	for pi := range inst.Params {
		pc := &inst.Params[pi]
		n, ok := pc.Expr.(*verilog.Number)
		if !ok {
			continue
		}
		v := n.Value
		deltas := []uint64{v + 1}
		if v > 1 {
			deltas = append(deltas, v-1)
		}
		for _, nv := range deltas {
			pc, nv := pc, nv
			muts = append(muts, mutator{
				syn: SynParam,
				desc: fmt.Sprintf("instance %s: parameter override %s changed from %d to %d",
					inst.Name, pc.Port, v, nv),
				aff: aff,
				apply: func() {
					pc.Expr = &verilog.Number{Value: nv, Width: n.Width}
				},
			})
		}
	}
	return muts
}

// topClocks collects the distinct clock names the top module drives: the
// posedge event signals of its always blocks plus any clock identifier
// wired into a child clock port. Two or more distinct clocks mean the
// design has multiple domains to miswire.
func topClocks(m *verilog.Module, children childPorts) []string {
	seen := map[string]bool{}
	var out []string
	add := func(name string) {
		if name == "" || seen[name] || strings.Contains(strings.ToLower(name), "rst") ||
			strings.Contains(strings.ToLower(name), "reset") {
			return
		}
		seen[name] = true
		out = append(out, name)
	}
	for _, it := range m.Items {
		switch x := it.(type) {
		case *verilog.Always:
			for _, ev := range x.Events {
				if ev.Edge == verilog.EdgePos {
					add(ev.Signal)
				}
			}
		case *verilog.Instance:
			ports := children[x.Module]
			for i, pc := range x.Conns {
				p := connPort(x, ports, i)
				if p == nil || p.Dir != verilog.DirInput || !compile.IsClock(p.Name) {
					continue
				}
				if ident, ok := pc.Expr.(*verilog.Ident); ok {
					add(ident.Name)
				}
			}
		}
	}
	return out
}

// alwaysReclocks yields SynCdc mutators: a sequential block's clock event
// redirected to another clock in the design. The register then samples in
// the wrong domain — a bug that only exists once there are two domains,
// and that single-domain corpora can never express.
func alwaysReclocks(a *verilog.Always, m *verilog.Module, clocks []string) []mutator {
	var muts []mutator
	aff := assignedBelow(a.Body)
	for ei := range a.Events {
		ev := &a.Events[ei]
		if ev.Edge != verilog.EdgePos || !slices.Contains(clocks, ev.Signal) {
			continue
		}
		for _, other := range clocks {
			if other == ev.Signal {
				continue
			}
			ev, other, from := ev, other, ev.Signal
			muts = append(muts, mutator{
				syn:  SynCdc,
				desc: fmt.Sprintf("register bank re-clocked from %s to %s", from, other),
				aff:  aff,
				apply: func() {
					ev.Signal = other
				},
			})
		}
	}
	return muts
}

// connReclocks yields SynCdc mutators on instance clock connections: the
// child's clock port rewired to another top-level clock, silently moving
// the whole instance into a different domain.
func connReclocks(inst *verilog.Instance, ports []*verilog.Port, clocks []string) []mutator {
	var muts []mutator
	aff := instOutputs(inst, ports)
	for i := range inst.Conns {
		p := connPort(inst, ports, i)
		if p == nil || p.Dir != verilog.DirInput || !compile.IsClock(p.Name) {
			continue
		}
		ident, ok := inst.Conns[i].Expr.(*verilog.Ident)
		if !ok || !slices.Contains(clocks, ident.Name) {
			continue
		}
		for _, other := range clocks {
			if other == ident.Name {
				continue
			}
			i, other, from := i, other, ident.Name
			muts = append(muts, mutator{
				syn: SynCdc,
				desc: fmt.Sprintf("instance %s: clock port .%s rewired from %s to %s",
					inst.Name, p.Name, from, other),
				aff: aff,
				apply: func() {
					inst.Conns[i].Expr = &verilog.Ident{Name: other}
				},
			})
		}
	}
	return muts
}
