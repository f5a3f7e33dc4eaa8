package model

import (
	"maps"
	"slices"

	"repro/internal/verilog"
)

// depGraph captures which signals each signal's driving logic reads,
// built from the parsed buggy module. The localiser uses it to compute
// cone-of-influence distances from the failing assertion's signals.
type depGraph struct {
	// drivers[s] lists the signals read by logic that drives s.
	drivers map[string][]string
	// declared holds the module's port and net names.
	declared map[string]bool
}

// buildDepGraph extracts the driver graph from a module AST.
func buildDepGraph(m *verilog.Module) *depGraph {
	g := &depGraph{drivers: map[string][]string{}, declared: map[string]bool{}}
	for _, p := range m.Ports {
		g.declared[p.Name] = true
	}
	for _, it := range m.Items {
		if nd, ok := it.(*verilog.NetDecl); ok {
			for _, n := range nd.Names {
				g.declared[n] = true
			}
		}
	}
	addEdge := func(dst string, srcs map[string]bool) {
		for s := range srcs {
			if !slices.Contains(g.drivers[dst], s) {
				g.drivers[dst] = append(g.drivers[dst], s)
			}
		}
	}
	var visitStmt func(s verilog.Stmt, conds map[string]bool)
	visitStmt = func(s verilog.Stmt, conds map[string]bool) {
		switch x := s.(type) {
		case *verilog.Block:
			for _, sub := range x.Stmts {
				visitStmt(sub, conds)
			}
		case *verilog.NonBlocking:
			srcs := verilog.ExprIdents(x.RHS)
			for c := range conds {
				srcs[c] = true
			}
			for dst := range verilog.ExprIdents(x.LHS) {
				addEdge(dst, srcs)
			}
		case *verilog.Blocking:
			srcs := verilog.ExprIdents(x.RHS)
			for c := range conds {
				srcs[c] = true
			}
			for dst := range verilog.ExprIdents(x.LHS) {
				addEdge(dst, srcs)
			}
		case *verilog.If:
			sub := maps.Clone(conds)
			for c := range verilog.ExprIdents(x.Cond) {
				sub[c] = true
			}
			visitStmt(x.Then, sub)
			if x.Else != nil {
				visitStmt(x.Else, sub)
			}
		case *verilog.Case:
			sub := maps.Clone(conds)
			for c := range verilog.ExprIdents(x.Subject) {
				sub[c] = true
			}
			for _, item := range x.Items {
				visitStmt(item.Body, sub)
			}
		}
	}
	for _, it := range m.Items {
		switch x := it.(type) {
		case *verilog.AssignItem:
			srcs := verilog.ExprIdents(x.RHS)
			for dst := range verilog.ExprIdents(x.LHS) {
				addEdge(dst, srcs)
			}
		case *verilog.Always:
			visitStmt(x.Body, map[string]bool{})
		case *verilog.NetDecl:
			if x.Init != nil && len(x.Names) == 1 {
				addEdge(x.Names[0], verilog.ExprIdents(x.Init))
			}
		}
	}
	return g
}

// coneDistances returns, for every signal, the shortest driver-graph
// distance to any of the given roots (the assertion's signals): 0 for the
// roots themselves, 1 for their direct drivers, and so on. Unreachable
// signals are absent from the map.
func (g *depGraph) coneDistances(roots []string) map[string]int {
	dist := map[string]int{}
	queue := make([]string, 0, len(roots))
	for _, r := range roots {
		if _, ok := dist[r]; !ok {
			dist[r] = 0
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, drv := range g.drivers[cur] {
			if _, seen := dist[drv]; !seen {
				dist[drv] = dist[cur] + 1
				queue = append(queue, drv)
			}
		}
	}
	return dist
}
