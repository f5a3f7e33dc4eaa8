package verilog

import (
	"fmt"
	"strings"
	"unicode"
)

// LexError describes a lexical error with its position.
type LexError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *LexError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer turns Verilog source text into a token stream. It skips whitespace,
// comments, and compiler directives (`...), and tracks line/column positions.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return &LexError{Pos: start, Msg: "unterminated block comment"}
			}
		case c == '`':
			// Compiler directive: skip to end of line.
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || c == '$' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// isBaseDigit reports whether c is a valid digit at position idx of the
// digit run for the given base letter ('b', 'o', 'd' or 'h', already
// lower-cased). Each base admits only its own digit set plus '_'
// separators and the x/z/? unknown digits — which a decimal literal
// allows only as its sole leading digit ('dx), per IEEE 1364 §2.5.1.
// Accepting any hex digit in any base made decimal literals swallow
// following tokens: 8'd1?0 must lex as the literal 8'd1, then '?',
// then 0 — not as one malformed literal.
func isBaseDigit(c, base byte, idx int) bool {
	if c == '_' {
		return idx > 0 // a literal's digit run cannot start with '_'
	}
	if c == 'x' || c == 'X' || c == 'z' || c == 'Z' || c == '?' {
		return base != 'd' || idx == 0
	}
	switch base {
	case 'b':
		return c == '0' || c == '1'
	case 'o':
		return c >= '0' && c <= '7'
	case 'd':
		return isDigit(c)
	default: // 'h'
		return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
	}
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	start := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: start}, nil
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		return lx.lexIdent(start), nil
	case c == '$':
		return lx.lexSysIdent(start)
	case isDigit(c) || c == '\'':
		return lx.lexNumber(start)
	case c == '"':
		return lx.lexString(start)
	}
	return lx.lexOperator(start)
}

func (lx *Lexer) lexIdent(start Pos) Token {
	begin := lx.off
	for {
		for lx.off < len(lx.src) && isIdentPart(lx.peek()) {
			lx.advance()
		}
		// Hierarchical names produced by elaboration ("u0.count") must
		// survive a print/parse round trip as single identifiers: a '.'
		// directly between identifier characters extends the token. A
		// leading '.' (named port connection ".clk(clk)") never reaches
		// here and still lexes as TokDot.
		if lx.peek() == '.' && lx.off+1 < len(lx.src) && isIdentStart(lx.src[lx.off+1]) {
			lx.advance()
			continue
		}
		break
	}
	text := lx.src[begin:lx.off]
	if kw, ok := keywords[text]; ok {
		return Token{Kind: kw, Text: text, Pos: start}
	}
	return Token{Kind: TokIdent, Text: text, Pos: start}
}

func (lx *Lexer) lexSysIdent(start Pos) (Token, error) {
	begin := lx.off
	lx.advance() // consume '$'
	if lx.off >= len(lx.src) || !isIdentStart(lx.peek()) {
		return Token{}, &LexError{Pos: start, Msg: "expected identifier after '$'"}
	}
	for lx.off < len(lx.src) && isIdentPart(lx.peek()) {
		lx.advance()
	}
	return Token{Kind: TokSysIdent, Text: lx.src[begin:lx.off], Pos: start}, nil
}

// lexNumber handles plain decimals (42), sized literals (4'b1010, 8'hFF),
// and unsized based literals ('d15). Underscores are allowed inside digits.
func (lx *Lexer) lexNumber(start Pos) (Token, error) {
	begin := lx.off
	for lx.off < len(lx.src) && (isDigit(lx.peek()) || lx.peek() == '_') {
		lx.advance()
	}
	if lx.off < len(lx.src) && lx.peek() == '\'' {
		lx.advance()
		if lx.off < len(lx.src) && (lx.peek() == 's' || lx.peek() == 'S') {
			lx.advance()
		}
		if lx.off >= len(lx.src) || !strings.ContainsRune("bBoOdDhH", rune(lx.peek())) {
			return Token{}, &LexError{Pos: start, Msg: "invalid base specifier in numeric literal"}
		}
		base := lx.peek() | 0x20 // lower-case the base letter
		lx.advance()
		if lx.off >= len(lx.src) || !isBaseDigit(lx.peek(), base, 0) {
			return Token{}, &LexError{Pos: start, Msg: "missing digits in based numeric literal"}
		}
		for i := 0; lx.off < len(lx.src) && isBaseDigit(lx.peek(), base, i); i++ {
			lx.advance()
		}
	}
	return Token{Kind: TokNumber, Text: lx.src[begin:lx.off], Pos: start}, nil
}

func (lx *Lexer) lexString(start Pos) (Token, error) {
	lx.advance() // opening quote
	var sb strings.Builder
	for {
		if lx.off >= len(lx.src) {
			return Token{}, &LexError{Pos: start, Msg: "unterminated string literal"}
		}
		c := lx.advance()
		if c == '"' {
			break
		}
		if c == '\\' && lx.off < len(lx.src) {
			esc := lx.advance()
			switch esc {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			default:
				sb.WriteByte(esc)
			}
			continue
		}
		if c == '\n' {
			return Token{}, &LexError{Pos: start, Msg: "newline in string literal"}
		}
		sb.WriteByte(c)
	}
	return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
}

func (lx *Lexer) lexOperator(start Pos) (Token, error) {
	c := lx.advance()
	mk := func(k TokenKind) (Token, error) {
		return Token{Kind: k, Text: k.String(), Pos: start}, nil
	}
	switch c {
	case '(':
		return mk(TokLParen)
	case ')':
		return mk(TokRParen)
	case '[':
		return mk(TokLBracket)
	case ']':
		return mk(TokRBracket)
	case '{':
		return mk(TokLBrace)
	case '}':
		return mk(TokRBrace)
	case ';':
		return mk(TokSemi)
	case ',':
		return mk(TokComma)
	case ':':
		return mk(TokColon)
	case '.':
		return mk(TokDot)
	case '@':
		return mk(TokAt)
	case '?':
		return mk(TokQuestion)
	case '#':
		if lx.peek() == '#' {
			lx.advance()
			return mk(TokHashHash)
		}
		return mk(TokHash)
	case '+':
		return mk(TokPlus)
	case '-':
		if lx.peek() == '>' {
			lx.advance()
			return mk(TokArrow)
		}
		return mk(TokMinus)
	case '*':
		return mk(TokStar)
	case '/':
		return mk(TokSlash)
	case '%':
		return mk(TokPercent)
	case '&':
		if lx.peek() == '&' {
			lx.advance()
			return mk(TokAndAnd)
		}
		return mk(TokAmp)
	case '|':
		switch {
		case lx.peek() == '|':
			lx.advance()
			return mk(TokOrOr)
		case lx.peek() == '-' && lx.peek2() == '>':
			lx.advance()
			lx.advance()
			return mk(TokImplies)
		case lx.peek() == '=' && lx.peek2() == '>':
			lx.advance()
			lx.advance()
			return mk(TokImpliesNon)
		}
		return mk(TokPipe)
	case '^':
		if lx.peek() == '~' {
			lx.advance()
			return mk(TokTildeCaret)
		}
		return mk(TokCaret)
	case '~':
		if lx.peek() == '^' {
			lx.advance()
			return mk(TokTildeCaret)
		}
		return mk(TokTilde)
	case '!':
		switch {
		case lx.peek() == '=' && lx.peek2() == '=':
			lx.advance()
			lx.advance()
			return mk(TokCaseNe)
		case lx.peek() == '=':
			lx.advance()
			return mk(TokNotEq)
		}
		return mk(TokBang)
	case '=':
		switch {
		case lx.peek() == '=' && lx.peek2() == '=':
			lx.advance()
			lx.advance()
			return mk(TokCaseEq)
		case lx.peek() == '=':
			lx.advance()
			return mk(TokEqEq)
		}
		return mk(TokEq)
	case '<':
		switch {
		case lx.peek() == '=':
			lx.advance()
			return mk(TokLE)
		case lx.peek() == '<':
			lx.advance()
			return mk(TokShl)
		}
		return mk(TokLT)
	case '>':
		switch {
		case lx.peek() == '=':
			lx.advance()
			return mk(TokGE)
		case lx.peek() == '>':
			lx.advance()
			if lx.peek() == '>' {
				lx.advance()
				return mk(TokAShr)
			}
			return mk(TokShr)
		}
		return mk(TokGT)
	}
	return Token{}, &LexError{Pos: start, Msg: fmt.Sprintf("unexpected character %q", string(c))}
}
