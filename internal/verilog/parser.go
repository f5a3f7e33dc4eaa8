package verilog

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseError is a syntax error with its source position.
type ParseError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *ParseError) Error() string { return fmt.Sprintf("%s: syntax error: %s", e.Pos, e.Msg) }

// Parser pulls tokens from a Lexer through a fixed window as it parses,
// so no token slice is ever built.
type Parser struct {
	lx      Lexer
	win     [lookahead]Token // pulled, unconsumed tokens; win[head] is cur()
	head, n int
	// done is set once the lexer has returned its EOF token or an error;
	// every later pull yields a zero-position EOF.
	done   bool
	lexErr error // the first lexical error, if any
	// depth is the current nesting level of expressions and statements.
	// deepest is the deepest level reached; an expression parser resets
	// it to measure how deep its operand reaches before folding that
	// operand into a new node (see fold), then restores the maximum.
	depth, deepest int
}

// maxNesting bounds how deeply expressions and statements may nest: each
// parenthesis, operand of an index, slice, call or concatenation, unary
// operator, ternary branch and nested statement is one level, and so is
// each binary operator, index or slice that takes the expression before
// it as its operand (a left-associative chain such as a+b+c or a[1][0]).
// The parser recurses once per level of the first kind, so without a bound
// about a million parentheses exhaust the goroutine stack, a fatal error
// no caller can recover from; chains are counted because they build an
// AST as deep as they are long without deep parser recursion. A source
// nested deeper fails with a *ParseError at the first token of the level
// past the bound. The bound is far above any real design (the catalog and
// generated programs stay within a few dozen levels) and bounds the depth
// of every parsed AST, so the walkers of the AST — elaboration, lowering,
// lint, printing — stay well inside the stack.
const maxNesting = 1 << 16

// enter opens one nesting level; every enter that succeeds is paired with
// a leave.
func (p *Parser) enter() error {
	if p.depth == maxNesting {
		return p.errf("nesting deeper than %d levels", maxNesting)
	}
	p.depth++
	p.deepest = max(p.deepest, p.depth)
	return nil
}

func (p *Parser) leave() { p.depth-- }

// fold deepens the expression parsed since the last reset of deepest by
// one level: the node about to be built, at the current token, takes that
// expression as its operand.
func (p *Parser) fold() error {
	if p.deepest == maxNesting {
		return p.errf("nesting deeper than %d levels", maxNesting)
	}
	p.deepest++
	return nil
}

// lookahead is the window size: cur() plus peekKind(1) and peekKind(2),
// the parser's deepest lookahead.
const lookahead = 3

func newParser(src string) *Parser {
	return &Parser{lx: *NewLexer(src)}
}

// Parse parses a single module from source text. This is the main entry
// point used by the compiler front end.
func Parse(src string) (*Module, error) {
	p := newParser(src)
	m, err := p.parseModule()
	if err == nil && p.cur().Kind != TokEOF {
		err = p.errf("unexpected %s after endmodule", p.cur())
	}
	if err = p.settle(err); err != nil {
		return nil, err
	}
	return m, nil
}

// ParseSet parses a source file containing one or more modules. Single-
// module files yield a one-element set, so ParseSet subsumes Parse for
// callers that accept hierarchies.
func ParseSet(src string) (*SourceSet, error) {
	return newParser(src).parseSet()
}

func (p *Parser) parseSet() (*SourceSet, error) {
	set := &SourceSet{}
	for {
		m, err := p.parseModule()
		if err != nil {
			return nil, p.settle(err)
		}
		set.Modules = append(set.Modules, m)
		switch p.cur().Kind {
		case TokModule:
		case TokEOF:
			if err := p.settle(nil); err != nil {
				return nil, err
			}
			return set, nil
		default:
			return nil, p.settle(p.errf("unexpected %s after endmodule", p.cur()))
		}
	}
}

// ParseExpr parses a standalone expression, used by tooling that needs to
// parse fix snippets or assertion conditions in isolation.
func ParseExpr(src string) (Expr, error) {
	p := newParser(src)
	e, err := p.parseExpr()
	if err == nil && p.cur().Kind != TokEOF {
		err = p.errf("unexpected %s after expression", p.cur())
	}
	if err = p.settle(err); err != nil {
		return nil, err
	}
	return e, nil
}

// settle returns the error of a parse that ended with err (nil on
// success). A lexical error anywhere in the input takes precedence over a
// parse error, so after a parse error the rest of the input is lexed
// first.
func (p *Parser) settle(err error) error {
	for !p.done {
		p.pull()
	}
	if p.lexErr != nil {
		return p.lexErr
	}
	return err
}

// pull lexes one token into the window. A lexical error ends the stream:
// the parser sees EOF from then on and its result is discarded for the
// error.
func (p *Parser) pull() Token {
	var t Token
	if !p.done {
		var err error
		t, err = p.lx.Next()
		switch {
		case err != nil:
			p.lexErr, p.done, t = err, true, Token{Kind: TokEOF}
		case t.Kind == TokEOF:
			p.done = true
		}
	}
	return t
}

// fill makes the window hold at least k+1 tokens.
func (p *Parser) fill(k int) {
	for p.n <= k {
		p.win[(p.head+p.n)%lookahead] = p.pull()
		p.n++
	}
}

func (p *Parser) cur() Token {
	if p.n == 0 {
		p.fill(0)
	}
	return p.win[p.head]
}

func (p *Parser) peekKind(ahead int) TokenKind {
	return p.peekTok(ahead).Kind
}

func (p *Parser) peekTok(ahead int) Token {
	p.fill(ahead)
	return p.win[(p.head+ahead)%lookahead]
}

func (p *Parser) next() Token {
	t := p.cur()
	p.head = (p.head + 1) % lookahead
	p.n--
	return t
}

func (p *Parser) accept(k TokenKind) bool {
	if p.cur().Kind == k {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k TokenKind) (Token, error) {
	if p.cur().Kind != k {
		return Token{}, p.errf("expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *Parser) errf(format string, args ...any) error {
	return &ParseError{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

// ---------------------------------------------------------------------------
// Module structure
// ---------------------------------------------------------------------------

func (p *Parser) parseModule() (*Module, error) {
	start, err := p.expect(TokModule)
	if err != nil {
		return nil, err
	}
	nameTok, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	m := &Module{Name: nameTok.Text, Pos: start.Pos}

	// Optional parameter port list: #(parameter N = 4, ...)
	if p.accept(TokHash) {
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		for {
			p.accept(TokParameter)
			decl, err := p.parseOneParam(false)
			if err != nil {
				return nil, err
			}
			m.Items = append(m.Items, decl)
			if !p.accept(TokComma) {
				break
			}
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
	}

	if p.accept(TokLParen) {
		if p.cur().Kind != TokRParen {
			if err := p.parsePortList(m); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}

	for p.cur().Kind != TokEndmodule {
		if p.cur().Kind == TokEOF {
			return nil, p.errf("missing endmodule")
		}
		items, err := p.parseItem(m)
		if err != nil {
			return nil, err
		}
		m.Items = append(m.Items, items...)
	}
	p.next() // endmodule
	return m, nil
}

// parsePortList handles both ANSI ports (direction inline) and non-ANSI
// ports (bare names whose direction appears in later items).
func (p *Parser) parsePortList(m *Module) error {
	var lastDir PortDir
	var haveDir bool
	for {
		tok := p.cur()
		switch tok.Kind {
		case TokInput, TokOutput, TokInout:
			p.next()
			dir := dirOf(tok.Kind)
			lastDir, haveDir = dir, true
			isReg := p.accept(TokReg) || p.accept(TokLogic)
			rng, err := p.parseOptRange()
			if err != nil {
				return err
			}
			name, err := p.expect(TokIdent)
			if err != nil {
				return err
			}
			m.Ports = append(m.Ports, &Port{Dir: dir, IsReg: isReg, Range: rng, Name: name.Text, Pos: tok.Pos})
		case TokIdent:
			p.next()
			if haveDir {
				// continuation of previous ANSI declaration: "input a, b"
				prev := m.Ports[len(m.Ports)-1]
				m.Ports = append(m.Ports, &Port{Dir: lastDir, IsReg: prev.IsReg, Range: prev.Range, Name: tok.Text, Pos: tok.Pos})
			} else {
				// non-ANSI: bare name; direction comes later.
				m.Ports = append(m.Ports, &Port{Dir: DirInput, Name: tok.Text, Pos: tok.Pos})
			}
		default:
			return p.errf("expected port declaration, found %s", tok)
		}
		if !p.accept(TokComma) {
			return nil
		}
	}
}

func dirOf(k TokenKind) PortDir {
	switch k {
	case TokInput:
		return DirInput
	case TokOutput:
		return DirOutput
	default:
		return DirInout
	}
}

func (p *Parser) parseOptRange() (*Range, error) {
	if p.cur().Kind != TokLBracket {
		return nil, nil
	}
	p.next()
	hi, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokColon); err != nil {
		return nil, err
	}
	lo, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRBracket); err != nil {
		return nil, err
	}
	return &Range{Hi: hi, Lo: lo}, nil
}

func (p *Parser) parseOneParam(isLocal bool) (*ParamDecl, error) {
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokEq); err != nil {
		return nil, err
	}
	val, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ParamDecl{IsLocal: isLocal, Name: name.Text, Value: val, Pos: name.Pos}, nil
}

// parseItem parses one module item; a single source item can declare several
// names, producing several AST items for non-ANSI port declarations.
func (p *Parser) parseItem(m *Module) ([]Item, error) {
	tok := p.cur()
	switch tok.Kind {
	case TokInput, TokOutput, TokInout:
		return p.parseNonANSIPortDecl(m)
	case TokWire, TokReg, TokLogic, TokInteger:
		it, err := p.parseNetDecl()
		if err != nil {
			return nil, err
		}
		return []Item{it}, nil
	case TokParameter, TokLocalparam:
		p.next()
		var items []Item
		for {
			d, err := p.parseOneParam(tok.Kind == TokLocalparam)
			if err != nil {
				return nil, err
			}
			items = append(items, d)
			if !p.accept(TokComma) {
				break
			}
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return items, nil
	case TokAssign:
		p.next()
		lhs, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokEq); err != nil {
			return nil, err
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return []Item{&AssignItem{LHS: lhs, RHS: rhs, Pos: tok.Pos}}, nil
	case TokAlways, TokAlwaysFF, TokAlwaysComb:
		it, err := p.parseAlways()
		if err != nil {
			return nil, err
		}
		return []Item{it}, nil
	case TokInitial:
		p.next()
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return []Item{&Initial{Body: body, Pos: tok.Pos}}, nil
	case TokProperty:
		it, err := p.parsePropertyDecl()
		if err != nil {
			return nil, err
		}
		return []Item{it}, nil
	case TokAssert:
		it, err := p.parseAssert("")
		if err != nil {
			return nil, err
		}
		return []Item{it}, nil
	case TokIdent:
		// A leading identifier begins either a labelled assertion
		// ("label: assert property ...") or a module instantiation
		// ("sub u0 (...);", "sub #(.P(4)) u0 (...);").
		if p.peekKind(1) == TokColon && p.peekKind(2) == TokAssert {
			label := p.next().Text
			p.next() // colon
			it, err := p.parseAssert(label)
			if err != nil {
				return nil, err
			}
			return []Item{it}, nil
		}
		if p.peekKind(1) == TokHash || (p.peekKind(1) == TokIdent && p.peekKind(2) == TokLParen) {
			it, err := p.parseInstance()
			if err != nil {
				return nil, err
			}
			return []Item{it}, nil
		}
		return nil, p.errf("unexpected %s after identifier %q in module body (expected an instance name for a module instantiation, or ':' for a labelled assertion)", p.peekTok(1), tok.Text)
	default:
		return nil, p.errf("unexpected %s in module body", tok)
	}
}

// parseInstance parses a module instantiation item, with optional named
// parameter overrides and either all-named or all-positional connections:
//
//	sub u0 (a, b);
//	sub #(.P(4)) u0 (.clk(clk), .q(q));
func (p *Parser) parseInstance() (Item, error) {
	mod := p.next() // module name
	inst := &Instance{Module: mod.Text, Pos: mod.Pos}
	if p.accept(TokHash) {
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		for {
			pc, err := p.parseNamedConn()
			if err != nil {
				return nil, err
			}
			if pc.Expr == nil {
				return nil, &ParseError{Pos: pc.Pos, Msg: fmt.Sprintf("parameter override .%s() needs a value", pc.Port)}
			}
			inst.Params = append(inst.Params, pc)
			if !p.accept(TokComma) {
				break
			}
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	inst.Name = name.Text
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	if p.cur().Kind != TokRParen {
		if p.cur().Kind == TokDot {
			for {
				pc, err := p.parseNamedConn()
				if err != nil {
					return nil, err
				}
				inst.Conns = append(inst.Conns, pc)
				if !p.accept(TokComma) {
					break
				}
			}
		} else {
			inst.Positional = true
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				inst.Conns = append(inst.Conns, PortConn{Expr: e, Pos: e.Span()})
				if !p.accept(TokComma) {
					break
				}
			}
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return inst, nil
}

// parseNamedConn parses one ".name(expr)" connection; the expression may
// be absent (".name()" leaves the port unconnected).
func (p *Parser) parseNamedConn() (PortConn, error) {
	dot, err := p.expect(TokDot)
	if err != nil {
		return PortConn{}, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return PortConn{}, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return PortConn{}, err
	}
	pc := PortConn{Port: name.Text, Pos: dot.Pos}
	if p.cur().Kind != TokRParen {
		e, err := p.parseExpr()
		if err != nil {
			return PortConn{}, err
		}
		pc.Expr = e
	}
	if _, err := p.expect(TokRParen); err != nil {
		return PortConn{}, err
	}
	return pc, nil
}

func (p *Parser) parseNonANSIPortDecl(m *Module) ([]Item, error) {
	tok := p.next()
	dir := dirOf(tok.Kind)
	isReg := p.accept(TokReg) || p.accept(TokLogic)
	rng, err := p.parseOptRange()
	if err != nil {
		return nil, err
	}
	for {
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if existing := m.FindPort(name.Text); existing != nil {
			existing.Dir = dir
			existing.IsReg = isReg
			existing.Range = rng
		} else {
			m.Ports = append(m.Ports, &Port{Dir: dir, IsReg: isReg, Range: rng, Name: name.Text, Pos: name.Pos})
		}
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return nil, nil
}

func (p *Parser) parseNetDecl() (Item, error) {
	tok := p.next()
	var kind NetKind
	switch tok.Kind {
	case TokWire:
		kind = NetWire
	case TokReg, TokLogic:
		kind = NetReg
	case TokInteger:
		kind = NetInteger
	}
	rng, err := p.parseOptRange()
	if err != nil {
		return nil, err
	}
	decl := &NetDecl{Kind: kind, Range: rng, Pos: tok.Pos}
	for {
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		decl.Names = append(decl.Names, name.Text)
		if p.accept(TokEq) {
			init, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			decl.Init = init
		}
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	if decl.Init != nil && len(decl.Names) > 1 {
		return nil, &ParseError{Pos: decl.Pos, Msg: "initializer on multi-name declaration"}
	}
	return decl, nil
}

func (p *Parser) parseAlways() (Item, error) {
	tok := p.next()
	kind := AlwaysPlain
	switch tok.Kind {
	case TokAlwaysFF:
		kind = AlwaysFF
	case TokAlwaysComb:
		kind = AlwaysComb
	}
	var events []Event
	if kind != AlwaysComb {
		if _, err := p.expect(TokAt); err != nil {
			return nil, err
		}
		if p.accept(TokStar) {
			// @* without parens
		} else {
			if _, err := p.expect(TokLParen); err != nil {
				return nil, err
			}
			if p.accept(TokStar) {
				// @(*)
			} else {
				for {
					ev, err := p.parseEvent()
					if err != nil {
						return nil, err
					}
					events = append(events, ev)
					if p.accept(TokOr) || p.accept(TokComma) {
						continue
					}
					break
				}
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
		}
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &Always{Kind: kind, Events: events, Body: body, Pos: tok.Pos}, nil
}

func (p *Parser) parseEvent() (Event, error) {
	switch p.cur().Kind {
	case TokPosedge:
		p.next()
		sig, err := p.expect(TokIdent)
		if err != nil {
			return Event{}, err
		}
		return Event{Edge: EdgePos, Signal: sig.Text}, nil
	case TokNegedge:
		p.next()
		sig, err := p.expect(TokIdent)
		if err != nil {
			return Event{}, err
		}
		return Event{Edge: EdgeNeg, Signal: sig.Text}, nil
	case TokIdent:
		sig := p.next()
		return Event{Edge: EdgeAny, Signal: sig.Text}, nil
	default:
		return Event{}, p.errf("expected event expression, found %s", p.cur())
	}
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (p *Parser) parseStmt() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	tok := p.cur()
	switch tok.Kind {
	case TokBegin:
		p.next()
		blk := &Block{Pos: tok.Pos}
		if p.accept(TokColon) {
			lbl, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			blk.Label = lbl.Text
		}
		for p.cur().Kind != TokEnd {
			if p.cur().Kind == TokEOF {
				return nil, p.errf("missing end")
			}
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			blk.Stmts = append(blk.Stmts, s)
		}
		p.next() // end
		return blk, nil
	case TokIf:
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.accept(TokElse) {
			els, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return &If{Cond: cond, Then: then, Else: els, Pos: tok.Pos}, nil
	case TokCase, TokCasez:
		return p.parseCase()
	case TokSemi:
		p.next()
		return &Block{Pos: tok.Pos}, nil
	default:
		return p.parseAssignStmt()
	}
}

func (p *Parser) parseCase() (Stmt, error) {
	tok := p.next()
	cs := &Case{IsCasez: tok.Kind == TokCasez, Pos: tok.Pos}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	subj, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	cs.Subject = subj
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	for p.cur().Kind != TokEndcase {
		if p.cur().Kind == TokEOF {
			return nil, p.errf("missing endcase")
		}
		item := CaseItem{Pos: p.cur().Pos}
		if p.accept(TokDefault) {
			p.accept(TokColon)
		} else {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				item.Exprs = append(item.Exprs, e)
				if !p.accept(TokComma) {
					break
				}
			}
			if _, err := p.expect(TokColon); err != nil {
				return nil, err
			}
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		item.Body = body
		cs.Items = append(cs.Items, item)
	}
	p.next() // endcase
	return cs, nil
}

func (p *Parser) parseAssignStmt() (Stmt, error) {
	start := p.cur().Pos
	lhs, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case TokLE:
		p.next()
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &NonBlocking{LHS: lhs, RHS: rhs, Pos: start}, nil
	case TokEq:
		p.next()
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &Blocking{LHS: lhs, RHS: rhs, Pos: start}, nil
	default:
		return nil, p.errf("expected assignment operator, found %s", p.cur())
	}
}

// ---------------------------------------------------------------------------
// SVA constructs
// ---------------------------------------------------------------------------

func (p *Parser) parsePropertyDecl() (Item, error) {
	tok := p.next() // property
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	decl := &PropertyDecl{Name: name.Text, Pos: tok.Pos}
	clock, disable, err := p.parseClockingAndDisable()
	if err != nil {
		return nil, err
	}
	if clock == nil {
		return nil, p.errf("property %s lacks a clocking event", name.Text)
	}
	decl.Clock = *clock
	decl.DisableIff = disable
	seq, err := p.parseSeqExpr()
	if err != nil {
		return nil, err
	}
	decl.Seq = seq
	p.accept(TokSemi)
	if _, err := p.expect(TokEndproperty); err != nil {
		return nil, err
	}
	return decl, nil
}

func (p *Parser) parseClockingAndDisable() (*Event, Expr, error) {
	var clock *Event
	var disable Expr
	if p.accept(TokAt) {
		if _, err := p.expect(TokLParen); err != nil {
			return nil, nil, err
		}
		ev, err := p.parseEvent()
		if err != nil {
			return nil, nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, nil, err
		}
		clock = &ev
	}
	if p.accept(TokDisable) {
		if _, err := p.expect(TokIff); err != nil {
			return nil, nil, err
		}
		if _, err := p.expect(TokLParen); err != nil {
			return nil, nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, nil, err
		}
		disable = e
	}
	return clock, disable, nil
}

func (p *Parser) parseSeq() ([]SeqTerm, error) {
	var terms []SeqTerm
	delay := 0
	if p.accept(TokHashHash) {
		n, err := p.parseDelayCount()
		if err != nil {
			return nil, err
		}
		delay = n
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		terms = append(terms, SeqTerm{DelayFromPrev: delay, Expr: e})
		if !p.accept(TokHashHash) {
			return terms, nil
		}
		n, err := p.parseDelayCount()
		if err != nil {
			return nil, err
		}
		delay = n
	}
}

func (p *Parser) parseDelayCount() (int, error) {
	tok, err := p.expect(TokNumber)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(tok.Text)
	if err != nil {
		return 0, &ParseError{Pos: tok.Pos, Msg: "cycle delay must be a plain decimal"}
	}
	return n, nil
}

func (p *Parser) parseSeqExpr() (*SeqExpr, error) {
	first, err := p.parseSeq()
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case TokImplies, TokImpliesNon:
		impl := ImplOverlap
		if p.cur().Kind == TokImpliesNon {
			impl = ImplNonOverlap
		}
		p.next()
		cons, err := p.parseSeq()
		if err != nil {
			return nil, err
		}
		return &SeqExpr{Antecedent: first, Impl: impl, Consequent: cons}, nil
	default:
		return &SeqExpr{Impl: ImplNone, Consequent: first}, nil
	}
}

func (p *Parser) parseAssert(label string) (Item, error) {
	tok := p.next() // assert
	if _, err := p.expect(TokProperty); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	it := &AssertItem{Label: label, Pos: tok.Pos}
	// Named reference: assert property (prop_name)
	if p.cur().Kind == TokIdent && p.peekKind(1) == TokRParen {
		it.Ref = p.next().Text
	} else {
		clock, disable, err := p.parseClockingAndDisable()
		if err != nil {
			return nil, err
		}
		it.Clock = clock
		it.DisableIff = disable
		seq, err := p.parseSeqExpr()
		if err != nil {
			return nil, err
		}
		it.Seq = seq
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if p.accept(TokElse) {
		call, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		if c, ok := call.(*Call); ok && len(c.Args) > 0 {
			if lit, ok := c.Args[0].(*StringLit); ok {
				it.ErrMsg = lit.Value
			}
		}
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return it, nil
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)
// ---------------------------------------------------------------------------

// binPrec maps a token kind to (binary operator, precedence). Higher binds
// tighter. 0 means not a binary operator.
func binPrec(k TokenKind) (BinaryOp, int) {
	switch k {
	case TokOrOr:
		return BinLogOr, 1
	case TokAndAnd:
		return BinLogAnd, 2
	case TokPipe:
		return BinOr, 3
	case TokCaret:
		return BinXor, 4
	case TokTildeCaret:
		return BinXnor, 4
	case TokAmp:
		return BinAnd, 5
	case TokEqEq:
		return BinEq, 6
	case TokNotEq:
		return BinNe, 6
	case TokCaseEq:
		return BinCaseEq, 6
	case TokCaseNe:
		return BinCaseNe, 6
	case TokLT:
		return BinLt, 7
	case TokLE:
		return BinLe, 7
	case TokGT:
		return BinGt, 7
	case TokGE:
		return BinGe, 7
	case TokShl:
		return BinShl, 8
	case TokShr:
		return BinShr, 8
	case TokAShr:
		return BinAShr, 8
	case TokPlus:
		return BinAdd, 9
	case TokMinus:
		return BinSub, 9
	case TokStar:
		return BinMul, 10
	case TokSlash:
		return BinDiv, 10
	case TokPercent:
		return BinMod, 10
	}
	return 0, 0
}

func (p *Parser) parseExpr() (Expr, error) {
	return p.parseTernary()
}

func (p *Parser) parseTernary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	cond, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if !p.accept(TokQuestion) {
		return cond, nil
	}
	pos := cond.Span()
	x, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokColon); err != nil {
		return nil, err
	}
	y, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &Ternary{Cond: cond, X: x, Y: y, Pos: pos}, nil
}

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	mark := p.deepest
	p.deepest = p.depth
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op, prec := binPrec(p.cur().Kind)
		if prec == 0 || prec < minPrec {
			p.deepest = max(mark, p.deepest)
			return lhs, nil
		}
		if err := p.fold(); err != nil {
			return nil, err
		}
		pos := p.next().Pos
		// The right operand sits one level below the new node, as lhs does.
		if err := p.enter(); err != nil {
			return nil, err
		}
		rhs, err := p.parseBinary(prec + 1)
		p.leave()
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Op: op, X: lhs, Y: rhs, Pos: pos}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	tok := p.cur()
	var op UnaryOp
	switch tok.Kind {
	case TokBang:
		op = UnaryLogicalNot
	case TokTilde:
		op = UnaryBitNot
	case TokMinus:
		op = UnaryMinus
	case TokPlus:
		op = UnaryPlus
	case TokAmp:
		op = UnaryRedAnd
	case TokPipe:
		op = UnaryRedOr
	case TokCaret:
		op = UnaryRedXor
	case TokTildeCaret:
		op = UnaryRedXnor
	default:
		return p.parsePostfix()
	}
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	p.next()
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return &Unary{Op: op, X: x, Pos: tok.Pos}, nil
}

func (p *Parser) parsePostfix() (Expr, error) {
	mark := p.deepest
	p.deepest = p.depth
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokLBracket {
		if err := p.fold(); err != nil {
			return nil, err
		}
		pos := p.next().Pos
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.accept(TokColon) {
			lo, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			e = &Slice{X: e, Hi: first, Lo: lo, Pos: pos}
		} else {
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			e = &Index{X: e, Idx: first, Pos: pos}
		}
	}
	p.deepest = max(mark, p.deepest)
	return e, nil
}

// StringLit is a string literal expression; it only appears as an argument
// to system calls such as $error.
type StringLit struct {
	Value string
	Pos   Pos
}

func (*StringLit) exprNode() {}

// Span implements Expr.
func (e *StringLit) Span() Pos { return e.Pos }

func (p *Parser) parsePrimary() (Expr, error) {
	tok := p.cur()
	switch tok.Kind {
	case TokIdent:
		p.next()
		return &Ident{Name: tok.Text, Pos: tok.Pos}, nil
	case TokNumber:
		p.next()
		return parseNumberToken(tok)
	case TokString:
		p.next()
		return &StringLit{Value: tok.Text, Pos: tok.Pos}, nil
	case TokSysIdent:
		p.next()
		call := &Call{Name: tok.Text, Pos: tok.Pos}
		if p.accept(TokLParen) {
			if p.cur().Kind != TokRParen {
				for {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, arg)
					if !p.accept(TokComma) {
						break
					}
				}
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
		}
		return call, nil
	case TokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokLBrace:
		return p.parseConcat()
	default:
		return nil, p.errf("expected expression, found %s", tok)
	}
}

func (p *Parser) parseConcat() (Expr, error) {
	open := p.next() // {
	first, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	// Replication: {n{expr}}
	if p.cur().Kind == TokLBrace {
		p.next()
		elem, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRBrace); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRBrace); err != nil {
			return nil, err
		}
		return &Repl{Count: first, Elem: elem, Pos: open.Pos}, nil
	}
	cc := &Concat{Elems: []Expr{first}, Pos: open.Pos}
	for p.accept(TokComma) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		cc.Elems = append(cc.Elems, e)
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return nil, err
	}
	return cc, nil
}

// parseNumberToken decodes a numeric literal token into a Number. x, z and
// ? digits decode to 0 in Value and set the corresponding bits of XMask
// (x) or ZMask (z and ?), positionally over the bits each digit spans; the
// IEEE left-extension of a leading x/z digit is not applied (documented
// substitution). Two-state consumers keep reading Value alone.
func parseNumberToken(tok Token) (Expr, error) {
	text := strings.ReplaceAll(tok.Text, "_", "")
	quote := strings.IndexByte(text, '\'')
	if quote < 0 {
		v, err := strconv.ParseUint(text, 10, 64)
		if err != nil {
			return nil, &ParseError{Pos: tok.Pos, Msg: "invalid decimal literal"}
		}
		return &Number{Value: v, Pos: tok.Pos}, nil
	}
	width := 0
	if quote > 0 {
		w, err := strconv.Atoi(text[:quote])
		if err != nil || w <= 0 || w > 64 {
			return nil, &ParseError{Pos: tok.Pos, Msg: "unsupported literal width"}
		}
		width = w
	}
	rest := text[quote+1:]
	if rest != "" && (rest[0] == 's' || rest[0] == 'S') {
		rest = rest[1:]
	}
	if rest == "" {
		return nil, &ParseError{Pos: tok.Pos, Msg: "missing base in literal"}
	}
	base := byte(strings.ToLower(rest[:1])[0])
	digits := rest[1:]
	var v, xm, zm uint64
	switch base {
	case 'd':
		switch {
		case digits == "x" || digits == "X":
			xm = ^uint64(0)
		case digits == "z" || digits == "Z" || digits == "?":
			zm = ^uint64(0)
		default:
			for i := 0; i < len(digits); i++ {
				if c := digits[i]; c == 'x' || c == 'X' || c == 'z' || c == 'Z' || c == '?' {
					return nil, &ParseError{Pos: tok.Pos, Msg: "x/z must be the only digit of a decimal literal"}
				}
			}
			var err error
			v, err = strconv.ParseUint(digits, 10, 64)
			if err != nil {
				return nil, &ParseError{Pos: tok.Pos, Msg: "invalid digits in literal"}
			}
		}
	case 'b', 'o', 'h':
		g := uint(1)
		if base == 'o' {
			g = 3
		} else if base == 'h' {
			g = 4
		}
		gm := (uint64(1) << g) - 1
		for i := 0; i < len(digits); i++ {
			if (v|xm|zm)>>(64-g) != 0 {
				return nil, &ParseError{Pos: tok.Pos, Msg: "invalid digits in literal"}
			}
			v <<= g
			xm <<= g
			zm <<= g
			switch c := digits[i]; {
			case c == 'x' || c == 'X':
				xm |= gm
			case c == 'z' || c == 'Z' || c == '?':
				zm |= gm
			case c >= '0' && c <= '9':
				v |= uint64(c - '0')
			case c >= 'a' && c <= 'f':
				v |= uint64(c-'a') + 10
			case c >= 'A' && c <= 'F':
				v |= uint64(c-'A') + 10
			default:
				return nil, &ParseError{Pos: tok.Pos, Msg: "invalid digits in literal"}
			}
		}
	default:
		return nil, &ParseError{Pos: tok.Pos, Msg: "invalid base in literal"}
	}
	if width > 0 && width < 64 {
		m := (uint64(1) << uint(width)) - 1
		v &= m
		xm &= m
		zm &= m
	}
	return &Number{Width: width, Base: base, Value: v, XMask: xm, ZMask: zm, Pos: tok.Pos}, nil
}
