package verilog

// CloneModule returns a deep copy of a module. The bug-injection engine
// mutates clones so the golden AST is never aliased.
func CloneModule(m *Module) *Module {
	out := &Module{Name: m.Name, Pos: m.Pos}
	out.Ports = make([]*Port, len(m.Ports))
	for i, p := range m.Ports {
		cp := *p
		cp.Range = cloneRange(p.Range)
		out.Ports[i] = &cp
	}
	out.Items = make([]Item, len(m.Items))
	for i, it := range m.Items {
		out.Items[i] = CloneItem(it)
	}
	return out
}

func cloneRange(r *Range) *Range {
	if r == nil {
		return nil
	}
	return &Range{Hi: CloneExpr(r.Hi), Lo: CloneExpr(r.Lo)}
}

// CloneItem deep-copies a module item.
func CloneItem(it Item) Item {
	switch x := it.(type) {
	case *Port:
		cp := *x
		cp.Range = cloneRange(x.Range)
		return &cp
	case *NetDecl:
		cp := *x
		cp.Range = cloneRange(x.Range)
		cp.Names = append([]string(nil), x.Names...)
		cp.Init = CloneExpr(x.Init)
		return &cp
	case *ParamDecl:
		cp := *x
		cp.Value = CloneExpr(x.Value)
		return &cp
	case *AssignItem:
		cp := *x
		cp.LHS = CloneExpr(x.LHS)
		cp.RHS = CloneExpr(x.RHS)
		return &cp
	case *Always:
		cp := *x
		cp.Events = append([]Event(nil), x.Events...)
		cp.Body = CloneStmt(x.Body)
		return &cp
	case *Initial:
		cp := *x
		cp.Body = CloneStmt(x.Body)
		return &cp
	case *PropertyDecl:
		cp := *x
		cp.DisableIff = CloneExpr(x.DisableIff)
		cp.Seq = CloneSeqExpr(x.Seq)
		return &cp
	case *AssertItem:
		cp := *x
		if x.Clock != nil {
			ev := *x.Clock
			cp.Clock = &ev
		}
		cp.DisableIff = CloneExpr(x.DisableIff)
		cp.Seq = CloneSeqExpr(x.Seq)
		return &cp
	case *Instance:
		cp := *x
		cp.Params = clonePortConns(x.Params)
		cp.Conns = clonePortConns(x.Conns)
		return &cp
	case *CommentItem:
		cp := *x
		return &cp
	}
	return it
}

func clonePortConns(conns []PortConn) []PortConn {
	if conns == nil {
		return nil
	}
	out := make([]PortConn, len(conns))
	for i, c := range conns {
		out[i] = PortConn{Port: c.Port, Expr: CloneExpr(c.Expr), Pos: c.Pos}
	}
	return out
}

// CloneSeqExpr deep-copies a property body.
func CloneSeqExpr(s *SeqExpr) *SeqExpr {
	if s == nil {
		return nil
	}
	out := &SeqExpr{Impl: s.Impl}
	for _, t := range s.Antecedent {
		out.Antecedent = append(out.Antecedent, SeqTerm{DelayFromPrev: t.DelayFromPrev, Expr: CloneExpr(t.Expr)})
	}
	for _, t := range s.Consequent {
		out.Consequent = append(out.Consequent, SeqTerm{DelayFromPrev: t.DelayFromPrev, Expr: CloneExpr(t.Expr)})
	}
	return out
}

// CloneStmt deep-copies a statement tree.
func CloneStmt(s Stmt) Stmt {
	switch x := s.(type) {
	case nil:
		return nil
	case *Block:
		cp := *x
		cp.Stmts = make([]Stmt, len(x.Stmts))
		for i, sub := range x.Stmts {
			cp.Stmts[i] = CloneStmt(sub)
		}
		return &cp
	case *NonBlocking:
		cp := *x
		cp.LHS = CloneExpr(x.LHS)
		cp.RHS = CloneExpr(x.RHS)
		return &cp
	case *Blocking:
		cp := *x
		cp.LHS = CloneExpr(x.LHS)
		cp.RHS = CloneExpr(x.RHS)
		return &cp
	case *If:
		cp := *x
		cp.Cond = CloneExpr(x.Cond)
		cp.Then = CloneStmt(x.Then)
		cp.Else = CloneStmt(x.Else)
		return &cp
	case *Case:
		cp := *x
		cp.Subject = CloneExpr(x.Subject)
		cp.Items = make([]CaseItem, len(x.Items))
		for i, item := range x.Items {
			ci := CaseItem{Pos: item.Pos, Body: CloneStmt(item.Body)}
			for _, e := range item.Exprs {
				ci.Exprs = append(ci.Exprs, CloneExpr(e))
			}
			cp.Items[i] = ci
		}
		return &cp
	}
	return s
}

// CloneExpr deep-copies an expression tree. Nil input yields nil.
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Ident:
		cp := *x
		return &cp
	case *Number:
		cp := *x
		return &cp
	case *StringLit:
		cp := *x
		return &cp
	case *Unary:
		cp := *x
		cp.X = CloneExpr(x.X)
		return &cp
	case *Binary:
		cp := *x
		cp.X = CloneExpr(x.X)
		cp.Y = CloneExpr(x.Y)
		return &cp
	case *Ternary:
		cp := *x
		cp.Cond = CloneExpr(x.Cond)
		cp.X = CloneExpr(x.X)
		cp.Y = CloneExpr(x.Y)
		return &cp
	case *Index:
		cp := *x
		cp.X = CloneExpr(x.X)
		cp.Idx = CloneExpr(x.Idx)
		return &cp
	case *Slice:
		cp := *x
		cp.X = CloneExpr(x.X)
		cp.Hi = CloneExpr(x.Hi)
		cp.Lo = CloneExpr(x.Lo)
		return &cp
	case *Concat:
		cp := *x
		cp.Elems = make([]Expr, len(x.Elems))
		for i, el := range x.Elems {
			cp.Elems[i] = CloneExpr(el)
		}
		return &cp
	case *Repl:
		cp := *x
		cp.Count = CloneExpr(x.Count)
		cp.Elem = CloneExpr(x.Elem)
		return &cp
	case *Call:
		cp := *x
		cp.Args = make([]Expr, len(x.Args))
		for i, a := range x.Args {
			cp.Args[i] = CloneExpr(a)
		}
		return &cp
	}
	return e
}
