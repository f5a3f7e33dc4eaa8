package verilog

import (
	"fmt"
	"strconv"
	"strings"
)

// Print renders a module as canonical Verilog text. The output is
// deterministic: parsing the result and printing it again yields identical
// text. Downstream packages rely on this to identify buggy lines by their
// printed line number and text.
func Print(m *Module) string {
	var pr printer
	pr.module(m)
	return pr.sb.String()
}

// PrintSet renders a source set as canonical Verilog text, one blank line
// between modules. ParseSet(PrintSet(s)) round-trips byte-identically.
func PrintSet(s *SourceSet) string {
	parts := make([]string, len(s.Modules))
	for i, m := range s.Modules {
		parts[i] = Print(m)
	}
	return strings.Join(parts, "\n")
}

// ExprString renders an expression with minimal parentheses.
func ExprString(e Expr) string {
	var sb strings.Builder
	writeExpr(&sb, e, 0)
	return sb.String()
}

type printer struct {
	sb strings.Builder
}

func (pr *printer) writef(format string, args ...any) {
	fmt.Fprintf(&pr.sb, format, args...)
}

// expr writes e with minimal parentheses.
func (pr *printer) expr(e Expr) { writeExpr(&pr.sb, e, 0) }

// assignment writes "lhs op rhs;" and ends the line.
func (pr *printer) assignment(lhs Expr, op string, rhs Expr) {
	pr.expr(lhs)
	pr.sb.WriteString(op)
	pr.expr(rhs)
	pr.sb.WriteString(";\n")
}

// rng writes a declaration range " [hi:lo]".
func (pr *printer) rng(r *Range) {
	pr.sb.WriteString(" [")
	pr.expr(r.Hi)
	pr.sb.WriteString(":")
	pr.expr(r.Lo)
	pr.sb.WriteString("]")
}

func (pr *printer) indent(level int) {
	for i := 0; i < level; i++ {
		pr.sb.WriteString("    ")
	}
}

func (pr *printer) module(m *Module) {
	// Parameter ports are printed in the body, keeping the header simple and
	// line numbering stable.
	pr.writef("module %s (\n", m.Name)
	for i, p := range m.Ports {
		pr.indent(1)
		pr.sb.WriteString(p.Dir.String())
		if p.IsReg {
			pr.sb.WriteString(" reg")
		}
		if p.Range != nil {
			pr.rng(p.Range)
		}
		pr.writef(" %s", p.Name)
		if i < len(m.Ports)-1 {
			pr.sb.WriteString(",")
		}
		pr.sb.WriteString("\n")
	}
	pr.sb.WriteString(");\n")
	for _, it := range m.Items {
		pr.item(it)
	}
	pr.sb.WriteString("endmodule\n")
}

func (pr *printer) item(it Item) {
	switch x := it.(type) {
	case *CommentItem:
		pr.indent(1)
		pr.writef("// %s\n", x.Text)
	case *ParamDecl:
		pr.indent(1)
		kw := "parameter"
		if x.IsLocal {
			kw = "localparam"
		}
		pr.writef("%s %s = ", kw, x.Name)
		pr.expr(x.Value)
		pr.sb.WriteString(";\n")
	case *NetDecl:
		pr.indent(1)
		pr.sb.WriteString(x.Kind.String())
		if x.Range != nil {
			pr.rng(x.Range)
		}
		pr.writef(" %s", strings.Join(x.Names, ", "))
		if x.Init != nil {
			pr.sb.WriteString(" = ")
			pr.expr(x.Init)
		}
		pr.sb.WriteString(";\n")
	case *AssignItem:
		pr.indent(1)
		pr.sb.WriteString("assign ")
		pr.assignment(x.LHS, " = ", x.RHS)
	case *Instance:
		pr.indent(1)
		pr.sb.WriteString(x.Module)
		if len(x.Params) > 0 {
			pr.sb.WriteString(" #(")
			for i, pc := range x.Params {
				if i > 0 {
					pr.sb.WriteString(", ")
				}
				pr.writef(".%s(", pc.Port)
				pr.expr(pc.Expr)
				pr.sb.WriteString(")")
			}
			pr.sb.WriteString(")")
		}
		pr.writef(" %s (", x.Name)
		for i, pc := range x.Conns {
			if i > 0 {
				pr.sb.WriteString(", ")
			}
			if x.Positional {
				pr.expr(pc.Expr)
			} else {
				pr.writef(".%s(", pc.Port)
				if pc.Expr != nil {
					pr.expr(pc.Expr)
				}
				pr.sb.WriteString(")")
			}
		}
		pr.sb.WriteString(");\n")
	case *Always:
		pr.always(x)
	case *Initial:
		pr.indent(1)
		pr.sb.WriteString("initial ")
		pr.stmtInline(x.Body, 1)
	case *PropertyDecl:
		pr.indent(1)
		pr.writef("property %s;\n", x.Name)
		pr.indent(2)
		pr.clocking(&x.Clock, x.DisableIff)
		pr.sb.WriteString("\n")
		pr.indent(2)
		pr.seqExpr(x.Seq)
		pr.sb.WriteString(";\n")
		pr.indent(1)
		pr.sb.WriteString("endproperty\n")
	case *AssertItem:
		pr.indent(1)
		if x.Label != "" {
			pr.writef("%s: ", x.Label)
		}
		if x.Ref != "" {
			pr.writef("assert property (%s)", x.Ref)
		} else {
			// The parser accepts an inline assertion without a clocking
			// event (compile rejects it), so print what was parsed.
			pr.sb.WriteString("assert property (")
			if pr.clocking(x.Clock, x.DisableIff) {
				pr.sb.WriteString(" ")
			}
			pr.seqExpr(x.Seq)
			pr.sb.WriteString(")")
		}
		if x.ErrMsg != "" {
			pr.writef("\n")
			pr.indent(2)
			pr.writef("else $error(%q)", x.ErrMsg)
		}
		pr.sb.WriteString(";\n")
	}
}

func edgeName(e EdgeKind) string {
	switch e {
	case EdgePos:
		return "posedge"
	case EdgeNeg:
		return "negedge"
	default:
		return ""
	}
}

// clocking writes a property's "@(edge signal)" and "disable iff (e)"
// prefixes, each when set, separated by a space, and reports whether it
// wrote either.
func (pr *printer) clocking(clock *Event, disable Expr) bool {
	if clock != nil {
		pr.writef("@(%s %s)", edgeName(clock.Edge), clock.Signal)
		if disable != nil {
			pr.sb.WriteString(" ")
		}
	}
	if disable != nil {
		pr.sb.WriteString("disable iff (")
		pr.expr(disable)
		pr.sb.WriteString(")")
	}
	return clock != nil || disable != nil
}

func (pr *printer) seqExpr(s *SeqExpr) {
	writeSeq := func(terms []SeqTerm) {
		for i, t := range terms {
			// Later terms always carry their ##N separator — including
			// ##0 (same-cycle fusion), which is still a term boundary and
			// must survive reparsing.
			if i > 0 {
				pr.writef(" ##%d ", t.DelayFromPrev)
			} else if t.DelayFromPrev > 0 {
				pr.writef("##%d ", t.DelayFromPrev)
			}
			pr.expr(t.Expr)
		}
	}
	if s.Impl != ImplNone {
		writeSeq(s.Antecedent)
		if s.Impl == ImplOverlap {
			pr.sb.WriteString(" |-> ")
		} else {
			pr.sb.WriteString(" |=> ")
		}
	}
	writeSeq(s.Consequent)
}

func (pr *printer) always(a *Always) {
	pr.indent(1)
	switch a.Kind {
	case AlwaysFF:
		pr.sb.WriteString("always_ff ")
	case AlwaysComb:
		pr.sb.WriteString("always_comb ")
	default:
		pr.sb.WriteString("always ")
	}
	if a.Kind != AlwaysComb {
		if len(a.Events) == 0 {
			pr.sb.WriteString("@(*) ")
		} else {
			pr.sb.WriteString("@(")
			for i, ev := range a.Events {
				if i > 0 {
					pr.sb.WriteString(" or ")
				}
				if name := edgeName(ev.Edge); name != "" {
					pr.writef("%s %s", name, ev.Signal)
				} else {
					pr.sb.WriteString(ev.Signal)
				}
			}
			pr.sb.WriteString(") ")
		}
	}
	pr.stmtInline(a.Body, 1)
}

// stmtInline prints a statement that begins on the current line (after
// "always @(...) " or "else ") at the given indent level.
func (pr *printer) stmtInline(s Stmt, level int) {
	switch x := s.(type) {
	case *Block:
		pr.sb.WriteString("begin")
		if x.Label != "" {
			pr.writef(" : %s", x.Label)
		}
		pr.sb.WriteString("\n")
		for _, sub := range x.Stmts {
			pr.stmt(sub, level+1)
		}
		pr.indent(level)
		pr.sb.WriteString("end\n")
	default:
		pr.sb.WriteString("\n")
		pr.stmt(s, level+1)
	}
}

// stmt prints a statement starting at a fresh line with the given indent.
func (pr *printer) stmt(s Stmt, level int) {
	switch x := s.(type) {
	case *Block:
		pr.indent(level)
		pr.stmtInline(x, level)
	case *NonBlocking:
		pr.indent(level)
		pr.assignment(x.LHS, " <= ", x.RHS)
	case *Blocking:
		pr.indent(level)
		pr.assignment(x.LHS, " = ", x.RHS)
	case *If:
		pr.ifChain(x, level, false)
	case *Case:
		pr.indent(level)
		kw := "case"
		if x.IsCasez {
			kw = "casez"
		}
		pr.writef("%s (", kw)
		pr.expr(x.Subject)
		pr.sb.WriteString(")\n")
		for _, item := range x.Items {
			pr.indent(level + 1)
			if item.Exprs == nil {
				pr.sb.WriteString("default: ")
			} else {
				for i, e := range item.Exprs {
					if i > 0 {
						pr.sb.WriteString(", ")
					}
					pr.expr(e)
				}
				pr.sb.WriteString(": ")
			}
			pr.caseBody(item.Body, level+1)
		}
		pr.indent(level)
		pr.sb.WriteString("endcase\n")
	}
}

// caseBody prints a case-arm body: simple assignments stay on the label's
// line; blocks open begin/end.
func (pr *printer) caseBody(s Stmt, level int) {
	switch x := s.(type) {
	case *NonBlocking:
		pr.assignment(x.LHS, " <= ", x.RHS)
	case *Blocking:
		pr.assignment(x.LHS, " = ", x.RHS)
	case *Block:
		pr.stmtInline(x, level)
	default:
		pr.sb.WriteString("\n")
		pr.stmt(s, level+1)
	}
}

// ifChain prints if / else-if / else chains. Simple one-statement branches
// are printed inline on the same line as their condition; block branches use
// begin/end. cont is true when this if continues an "else".
func (pr *printer) ifChain(x *If, level int, cont bool) {
	if !cont {
		pr.indent(level)
	}
	pr.sb.WriteString("if (")
	pr.expr(x.Cond)
	pr.sb.WriteString(") ")
	then := x.Then
	if x.Else != nil && swallowsElse(then) {
		// Dangling else: printed inline, the then-branch's trailing
		// else-less if would capture this if's else on reparse. Wrap it in
		// an explicit begin/end so the printed text keeps the AST's
		// association.
		then = &Block{Stmts: []Stmt{then}, Pos: then.Span()}
	}
	pr.branchBody(then, level)
	if x.Else == nil {
		return
	}
	pr.indent(level)
	pr.sb.WriteString("else ")
	if elif, ok := x.Else.(*If); ok {
		pr.ifChain(elif, level, true)
		return
	}
	pr.branchBody(x.Else, level)
}

// swallowsElse reports whether s, printed inline right before an "else",
// would capture that else on reparse: its trailing if/else-if chain ends in
// an if with no else branch. Blocks and case statements are closed by their
// end/endcase keyword and never capture.
func swallowsElse(s Stmt) bool {
	x, ok := s.(*If)
	if !ok {
		return false
	}
	if x.Else == nil {
		return true
	}
	return swallowsElse(x.Else)
}

func (pr *printer) branchBody(s Stmt, level int) {
	switch b := s.(type) {
	case *Block:
		pr.stmtInline(b, level)
	case *NonBlocking:
		pr.assignment(b.LHS, " <= ", b.RHS)
	case *Blocking:
		pr.assignment(b.LHS, " = ", b.RHS)
	case *If:
		pr.sb.WriteString("\n")
		pr.stmt(b, level+1)
	case *Case:
		pr.sb.WriteString("\n")
		pr.stmt(b, level+1)
	default:
		pr.sb.WriteString(";\n")
	}
}

// writeTight writes e in the style used inside bit- and part-select
// brackets: req[(ptr+1)%3], a[3:0]. It renders e into a scratch builder
// and copies it without its spaces, keeping a space where deleting it
// would fuse its neighbours into a different token: operator pairs
// ("a & &b" must not become "a&&b", nor "a ^ ~b" the xnor "a^~b"), and a
// ternary '?' after a numeric literal ('?' is a valid z-digit, so
// "4'h1 ? a : b" must not become the literal-swallowing "4'h1?a:b").
func writeTight(sb *strings.Builder, e Expr) {
	var tmp strings.Builder
	writeExpr(&tmp, e, 0)
	s := tmp.String()
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			if i > 0 && i+1 < len(s) {
				l, r := s[i-1], s[i+1]
				if (opChar(l) && opChar(r)) || (r == '?' && literalChar(l)) {
					sb.WriteByte(' ')
				}
			}
			continue
		}
		sb.WriteByte(s[i])
	}
}

// opChar reports whether c can begin or end a multi-character operator.
func opChar(c byte) bool {
	switch c {
	case '&', '|', '^', '~', '!', '<', '>', '=', '+', '-', '*', '/', '%':
		return true
	}
	return false
}

// literalChar reports whether c can end a numeric literal, whose digit run
// could otherwise extend over a following '?'.
func literalChar(c byte) bool {
	return c == '_' || c == '\'' ||
		(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// exprPrec returns the printing precedence of an expression node; larger
// binds tighter. Primaries return 100.
func exprPrec(e Expr) int {
	switch x := e.(type) {
	case *Ternary:
		return 0
	case *Binary:
		_, prec := binPrecOfOp(x.Op)
		return prec
	case *Unary:
		return 11
	default:
		return 100
	}
}

func binPrecOfOp(op BinaryOp) (BinaryOp, int) {
	switch op {
	case BinLogOr:
		return op, 1
	case BinLogAnd:
		return op, 2
	case BinOr:
		return op, 3
	case BinXor, BinXnor:
		return op, 4
	case BinAnd:
		return op, 5
	case BinEq, BinNe, BinCaseEq, BinCaseNe:
		return op, 6
	case BinLt, BinLe, BinGt, BinGe:
		return op, 7
	case BinShl, BinShr, BinAShr:
		return op, 8
	case BinAdd, BinSub:
		return op, 9
	default:
		return op, 10
	}
}

// writeExpr appends e to sb, inserting parentheses when e binds more
// loosely than its context (minPrec) requires. Everything is written into
// the caller's builder, so printing is linear in the size of the
// expression; only bracket operands go through a scratch builder, for
// writeTight.
func writeExpr(sb *strings.Builder, e Expr, minPrec int) {
	switch x := e.(type) {
	case *Ident:
		sb.WriteString(x.Name)
	case *Number:
		sb.WriteString(NumberText(x))
	case *StringLit:
		sb.WriteString(strconv.Quote(x.Value))
	case *Unary:
		paren := 11 < minPrec
		if paren {
			sb.WriteByte('(')
		}
		sb.WriteString(x.Op.String())
		writeExpr(sb, x.X, 12)
		if paren {
			sb.WriteByte(')')
		}
	case *Binary:
		_, prec := binPrecOfOp(x.Op)
		paren := prec < minPrec
		if paren {
			sb.WriteByte('(')
		}
		writeExpr(sb, x.X, prec)
		sb.WriteByte(' ')
		sb.WriteString(x.Op.String())
		sb.WriteByte(' ')
		writeExpr(sb, x.Y, prec+1)
		if paren {
			sb.WriteByte(')')
		}
	case *Ternary:
		paren := 0 < minPrec
		if paren {
			sb.WriteByte('(')
		}
		writeExpr(sb, x.Cond, 1)
		sb.WriteString(" ? ")
		writeExpr(sb, x.X, 1)
		sb.WriteString(" : ")
		writeExpr(sb, x.Y, 0)
		if paren {
			sb.WriteByte(')')
		}
	case *Index:
		writeExpr(sb, x.X, 100)
		sb.WriteByte('[')
		writeTight(sb, x.Idx)
		sb.WriteByte(']')
	case *Slice:
		writeExpr(sb, x.X, 100)
		sb.WriteByte('[')
		writeTight(sb, x.Hi)
		sb.WriteByte(':')
		writeTight(sb, x.Lo)
		sb.WriteByte(']')
	case *Concat:
		sb.WriteByte('{')
		for i, el := range x.Elems {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, el, 0)
		}
		sb.WriteByte('}')
	case *Repl:
		sb.WriteByte('{')
		writeExpr(sb, x.Count, 100)
		sb.WriteByte('{')
		writeExpr(sb, x.Elem, 0)
		sb.WriteString("}}")
	case *Call:
		sb.WriteString(x.Name)
		sb.WriteByte('(')
		for i, a := range x.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, a, 0)
		}
		sb.WriteByte(')')
	}
}
