package verilog

import (
	"errors"
	"strings"
	"testing"
)

const accuSrc = `
module accu (
    input clk,
    input rst_n,
    input [7:0] in,
    input valid_in,
    output reg valid_out,
    output reg [9:0] data_out
);
    wire end_cnt;
    reg [1:0] count;

    assign end_cnt = valid_in && count == 2'd3;

    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) count <= 0;
        else if (valid_in) count <= count + 1;
    end

    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) valid_out <= 0;
        else if (end_cnt) valid_out <= 1;
        else valid_out <= 0;
    end

    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) data_out <= 0;
        else if (valid_in) data_out <= data_out + in;
    end

    property valid_out_check;
        @(posedge clk) disable iff (!rst_n)
        end_cnt |-> ##1 valid_out == 1;
    endproperty

    valid_out_check_assertion: assert property (valid_out_check)
        else $error("valid_out should be high when end_cnt high");
endmodule
`

func TestParseAccu(t *testing.T) {
	m, err := Parse(accuSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if m.Name != "accu" {
		t.Errorf("module name = %q, want accu", m.Name)
	}
	if len(m.Ports) != 6 {
		t.Fatalf("got %d ports, want 6", len(m.Ports))
	}
	wantPorts := []struct {
		name  string
		dir   PortDir
		width bool
	}{
		{"clk", DirInput, false},
		{"rst_n", DirInput, false},
		{"in", DirInput, true},
		{"valid_in", DirInput, false},
		{"valid_out", DirOutput, false},
		{"data_out", DirOutput, true},
	}
	for i, w := range wantPorts {
		p := m.Ports[i]
		if p.Name != w.name || p.Dir != w.dir || (p.Range != nil) != w.width {
			t.Errorf("port %d = {%s %s range=%v}, want %+v", i, p.Name, p.Dir, p.Range != nil, w)
		}
	}
	props := m.Properties()
	if len(props) != 1 {
		t.Fatalf("got %d properties, want 1", len(props))
	}
	prop := props[0]
	if prop.Name != "valid_out_check" {
		t.Errorf("property name = %q", prop.Name)
	}
	if prop.Clock.Edge != EdgePos || prop.Clock.Signal != "clk" {
		t.Errorf("property clock = %+v", prop.Clock)
	}
	if prop.DisableIff == nil {
		t.Error("property missing disable iff")
	}
	if prop.Seq.Impl != ImplOverlap {
		t.Errorf("implication = %v, want |->", prop.Seq.Impl)
	}
	if len(prop.Seq.Consequent) != 1 || prop.Seq.Consequent[0].DelayFromPrev != 1 {
		t.Errorf("consequent = %+v, want one term delayed by 1", prop.Seq.Consequent)
	}
	asserts := m.Asserts()
	if len(asserts) != 1 {
		t.Fatalf("got %d asserts, want 1", len(asserts))
	}
	if asserts[0].Label != "valid_out_check_assertion" {
		t.Errorf("assert label = %q", asserts[0].Label)
	}
	if asserts[0].Ref != "valid_out_check" {
		t.Errorf("assert ref = %q", asserts[0].Ref)
	}
	if !strings.Contains(asserts[0].ErrMsg, "valid_out should be high") {
		t.Errorf("assert message = %q", asserts[0].ErrMsg)
	}
}

func TestParseNumberLiterals(t *testing.T) {
	tests := []struct {
		src   string
		width int
		value uint64
	}{
		{"42", 0, 42},
		{"4'b1010", 4, 10},
		{"8'hFF", 8, 255},
		{"8'hff", 8, 255},
		{"12'o777", 12, 511},
		{"16'd1000", 16, 1000},
		{"4'b10_10", 4, 10},
		{"8'bxxxx_zz01", 8, 1}, // x/z decode as 0 (two-state)
		{"3'b111", 3, 7},
		{"1'b1", 1, 1},
		{"32'hDEAD_BEEF", 32, 0xDEADBEEF},
	}
	for _, tt := range tests {
		e, err := ParseExpr(tt.src)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", tt.src, err)
			continue
		}
		n, ok := e.(*Number)
		if !ok {
			t.Errorf("ParseExpr(%q) = %T, want *Number", tt.src, e)
			continue
		}
		if n.Width != tt.width || n.Value != tt.value {
			t.Errorf("ParseExpr(%q) = width %d value %d, want width %d value %d",
				tt.src, n.Width, n.Value, tt.width, tt.value)
		}
	}
}

func TestParseExprPrecedence(t *testing.T) {
	tests := []struct {
		src  string
		want string // canonical re-print
	}{
		{"a + b * c", "a + b * c"},
		{"(a + b) * c", "(a + b) * c"},
		{"a | b & c", "a | b & c"},
		{"!a && b", "!a && b"},
		{"a == b || c != d", "a == b || c != d"},
		{"a ? b : c ? d : e", "a ? b : c ? d : e"},
		{"~(a ^ b)", "~(a ^ b)"},
		{"a << 2 + 1", "a << 2 + 1"},
		{"&vec", "&vec"},
		{"a[3:0]", "a[3:0]"},
		{"{a, b, c}", "{a, b, c}"},
		{"{4{x}}", "{4{x}}"},
		{"$past(x, 1)", "$past(x, 1)"},
		{"a - b - c", "a - b - c"},
		{"a - (b - c)", "a - (b - c)"},
	}
	for _, tt := range tests {
		e, err := ParseExpr(tt.src)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", tt.src, err)
			continue
		}
		got := ExprString(e)
		if got != tt.want {
			t.Errorf("ExprString(ParseExpr(%q)) = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"missing endmodule", "module m (input a);"},
		{"missing semicolon", "module m (input a)\nendmodule"},
		{"bad port", "module m (42);\nendmodule"},
		{"bad statement", "module m (input a);\nalways @(posedge a) 42;\nendmodule"},
		{"unterminated string", "module m (input a);\ninitial x = \"oops;\nendmodule"},
		{"bad literal base", "module m (input a);\nwire w = 4'q1010;\nendmodule"},
		{"stray token after module", "module m (input a);\nendmodule\nwire x;"},
		{"missing end", "module m (input a);\nalways @(posedge a) begin\nendmodule"},
		{"missing endcase", "module m (input a, output reg o);\nalways @(*) begin\ncase (a)\n1'b1: o = 1;\nend\nendmodule"},
		{"bare identifier item", "module m (input a);\nfoo;\nendmodule"},
		{"assignment at module scope", "module m (input a);\nx = a;\nendmodule"},
		{"mixed named then positional conns", "module m (input a);\nsub u0 (.x(a), a);\nendmodule"},
		{"mixed positional then named conns", "module m (input a);\nsub u0 (a, .x(a));\nendmodule"},
		{"positional parameter override", "module m (input a);\nsub #(4) u0 (a);\nendmodule"},
		{"empty parameter override", "module m (input a);\nsub #(.P()) u0 (a);\nendmodule"},
	}
	for _, tt := range tests {
		if _, err := Parse(tt.src); err == nil {
			t.Errorf("%s: Parse succeeded, want error", tt.name)
		}
	}
}

// TestPreciseItemDiagnostic pins the replacement for the old generic
// "unsupported construct (e.g. module instantiation)" error: instantiation
// parses, and the remaining unsupported leading-identifier items name the
// offending token in the diagnostic.
func TestPreciseItemDiagnostic(t *testing.T) {
	_, err := Parse("module m (input a);\nfoo = a;\nendmodule")
	if err == nil {
		t.Fatal("Parse succeeded, want error")
	}
	msg := err.Error()
	for _, want := range []string{"=", `"foo"`, "instantiation"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic %q does not mention %q", msg, want)
		}
	}
}

func TestParseInstance(t *testing.T) {
	src := `
module top (
    input clk,
    output [3:0] q
);
    counter #(.WIDTH(4), .MAX(9)) u0 (.clk(clk), .q(q));
    counter u1 (clk, q);
    blackbox u2 ();
    stub u3 (.clk(clk), .q());
endmodule
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	insts := m.Instances()
	if len(insts) != 4 {
		t.Fatalf("got %d instances, want 4", len(insts))
	}
	u0 := insts[0]
	if u0.Module != "counter" || u0.Name != "u0" || u0.Positional {
		t.Errorf("u0 = %+v", u0)
	}
	if len(u0.Params) != 2 || u0.Params[0].Port != "WIDTH" || u0.Params[1].Port != "MAX" {
		t.Errorf("u0 params = %+v", u0.Params)
	}
	if len(u0.Conns) != 2 || u0.Conns[0].Port != "clk" || u0.Conns[1].Port != "q" {
		t.Errorf("u0 conns = %+v", u0.Conns)
	}
	u1 := insts[1]
	if !u1.Positional || len(u1.Conns) != 2 || u1.Conns[0].Port != "" {
		t.Errorf("u1 = %+v", u1)
	}
	if len(insts[2].Conns) != 0 {
		t.Errorf("u2 conns = %+v", insts[2].Conns)
	}
	u3 := insts[3]
	if len(u3.Conns) != 2 || u3.Conns[1].Port != "q" || u3.Conns[1].Expr != nil {
		t.Errorf("u3 conns = %+v", u3.Conns)
	}
}

const hierSrc = `
module counter #(parameter WIDTH = 4, parameter MAX = 9) (
    input clk,
    input rst_n,
    output reg [WIDTH-1:0] q
);
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) q <= 0;
        else if (q == MAX) q <= 0;
        else q <= q + 1;
    end
endmodule

module pair (
    input clk,
    input rst_n,
    output [3:0] a,
    output [2:0] b
);
    counter u0 (.clk(clk), .rst_n(rst_n), .q(a));
    counter #(.WIDTH(3), .MAX(5)) u1 (.clk(clk), .rst_n(rst_n), .q(b));
endmodule
`

func TestParseSet(t *testing.T) {
	set, err := ParseSet(hierSrc)
	if err != nil {
		t.Fatalf("ParseSet: %v", err)
	}
	if len(set.Modules) != 2 {
		t.Fatalf("got %d modules, want 2", len(set.Modules))
	}
	top, err := set.Top()
	if err != nil {
		t.Fatalf("Top: %v", err)
	}
	if top.Name != "pair" {
		t.Errorf("top = %q, want pair", top.Name)
	}
	if set.Find("counter") == nil || set.Find("nope") != nil {
		t.Error("Find misbehaved")
	}
}

func TestTopAmbiguous(t *testing.T) {
	set, err := ParseSet("module a (input x);\nendmodule\nmodule b (input x);\nendmodule")
	if err != nil {
		t.Fatalf("ParseSet: %v", err)
	}
	_, err = set.Top()
	if err == nil {
		t.Fatal("Top succeeded, want ambiguity error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "a") || !strings.Contains(msg, "b") || !strings.Contains(msg, "ambiguous") {
		t.Errorf("ambiguity error %q does not list candidates", msg)
	}
}

// TestSetRoundTrip checks the multi-module printer fixpoint and that
// hierarchical (dotted) identifiers survive lexing as single tokens.
func TestSetRoundTrip(t *testing.T) {
	set, err := ParseSet(hierSrc)
	if err != nil {
		t.Fatalf("ParseSet: %v", err)
	}
	text1 := PrintSet(set)
	set2, err := ParseSet(text1)
	if err != nil {
		t.Fatalf("reparse of printed set: %v\n%s", err, text1)
	}
	text2 := PrintSet(set2)
	if text1 != text2 {
		t.Errorf("PrintSet not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
	}
}

// lexAll tokenizes the whole input. It returns the tokens (terminated by
// an EOF token) and the first lexical error, if any.
func lexAll(src string) ([]Token, error) {
	lx := NewLexer(src)
	var toks []Token
	for {
		tok, err := lx.Next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, tok)
		if tok.Kind == TokEOF {
			return toks, nil
		}
	}
}

func TestLexHierarchicalName(t *testing.T) {
	toks, err := lexAll("assign u0.q = u0.u1.count + 1; .clk(clk)")
	if err != nil {
		t.Fatal(err)
	}
	var idents []string
	for _, tok := range toks {
		if tok.Kind == TokIdent {
			idents = append(idents, tok.Text)
		}
	}
	want := []string{"u0.q", "u0.u1.count", "clk", "clk"}
	if len(idents) != len(want) {
		t.Fatalf("idents = %v, want %v", idents, want)
	}
	for i, w := range want {
		if idents[i] != w {
			t.Errorf("ident %d = %q, want %q", i, idents[i], w)
		}
	}
	// The leading dot of a named connection must stay a separate token.
	sawDot := false
	for _, tok := range toks {
		if tok.Kind == TokDot {
			sawDot = true
		}
	}
	if !sawDot {
		t.Error("named-connection dot was swallowed into an identifier")
	}
}

// TestPrintRoundTrip checks the printer fixpoint property: parse → print →
// parse → print must be stable, and the second parse must succeed.
func TestPrintRoundTrip(t *testing.T) {
	srcs := []string{accuSrc, `
module ctl (
    input clk,
    input rst_n,
    input [3:0] sel,
    output reg [7:0] out
);
    localparam IDLE = 0;
    reg [7:0] tmp;
    always @(*) begin
        case (sel)
            4'd0: tmp = 8'h01;
            4'd1, 4'd2: tmp = 8'h02;
            default: tmp = 8'hFF;
        endcase
    end
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) out <= 0;
        else out <= tmp;
    end
    assert property (@(posedge clk) disable iff (!rst_n) sel == 0 |=> out == 8'h01);
endmodule
`}
	for i, src := range srcs {
		m1, err := Parse(src)
		if err != nil {
			t.Fatalf("src %d: first parse: %v", i, err)
		}
		text1 := Print(m1)
		m2, err := Parse(text1)
		if err != nil {
			t.Fatalf("src %d: reparse of printed output: %v\n%s", i, err, text1)
		}
		text2 := Print(m2)
		if text1 != text2 {
			t.Errorf("src %d: print not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", i, text1, text2)
		}
	}
}

// TestPrintClocklessAssert: an inline assertion without a clocking event
// parses (compile rejects it later), so it must print, and round-trip,
// without one.
func TestPrintClocklessAssert(t *testing.T) {
	src := `
module m (
    input clk,
    input a,
    output y
);
    assign y = a;
    assert property (y == a);
    p: assert property (disable iff (!a) a |=> y);
endmodule
`
	m1, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	text1 := Print(m1)
	for _, want := range []string{"    assert property (y == a);\n", "    p: assert property (disable iff (!a) a |=> y);\n"} {
		if !strings.Contains(text1, want) {
			t.Errorf("printed text lacks %q:\n%s", want, text1)
		}
	}
	m2, err := Parse(text1)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text1)
	}
	if text2 := Print(m2); text2 != text1 {
		t.Errorf("print not a fixpoint:\n%s\n%s", text1, text2)
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := lexAll("module m;\n  wire x;\nendmodule\n")
	if err != nil {
		t.Fatal(err)
	}
	// tokens: module m ; wire x ; endmodule EOF
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("module pos = %v", toks[0].Pos)
	}
	if toks[3].Kind != TokWire || toks[3].Pos.Line != 2 || toks[3].Pos.Col != 3 {
		t.Errorf("wire tok = %v at %v", toks[3], toks[3].Pos)
	}
	if toks[6].Kind != TokEndmodule || toks[6].Pos.Line != 3 {
		t.Errorf("endmodule tok = %v at %v", toks[6], toks[6].Pos)
	}
}

func TestLexComments(t *testing.T) {
	toks, err := lexAll("wire // comment\n/* block\ncomment */ x `define FOO 1\n;")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokenKind{TokWire, TokIdent, TokSemi, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens %v, want %d", len(toks), toks, len(kinds))
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v, want %v", i, toks[i], k)
		}
	}
}

func TestLexOperators(t *testing.T) {
	src := "|-> |=> ## # <= < << >= > >> >>> == != === !== && & || | ~^ ^~ -> -"
	toks, err := lexAll(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{
		TokImplies, TokImpliesNon, TokHashHash, TokHash,
		TokLE, TokLT, TokShl, TokGE, TokGT, TokShr, TokAShr,
		TokEqEq, TokNotEq, TokCaseEq, TokCaseNe,
		TokAndAnd, TokAmp, TokOrOr, TokPipe, TokTildeCaret, TokTildeCaret,
		TokArrow, TokMinus, TokEOF,
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v, want %v", i, toks[i], k)
		}
	}
}

func TestNonANSIPorts(t *testing.T) {
	src := `
module legacy (a, b, y);
    input a;
    input b;
    output y;
    assign y = a & b;
endmodule
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(m.Ports) != 3 {
		t.Fatalf("got %d ports, want 3", len(m.Ports))
	}
	if m.Ports[2].Dir != DirOutput {
		t.Errorf("port y dir = %v, want output", m.Ports[2].Dir)
	}
}

func TestParamModule(t *testing.T) {
	src := `
module cnt #(parameter WIDTH = 4, parameter MAX = 9) (
    input clk,
    output reg [WIDTH-1:0] q
);
    always @(posedge clk) begin
        if (q == MAX) q <= 0;
        else q <= q + 1;
    end
endmodule
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var params []*ParamDecl
	for _, it := range m.Items {
		if p, ok := it.(*ParamDecl); ok {
			params = append(params, p)
		}
	}
	if len(params) != 2 || params[0].Name != "WIDTH" || params[1].Name != "MAX" {
		t.Errorf("params = %+v", params)
	}
}

func TestExprIdents(t *testing.T) {
	e, err := ParseExpr("a + b[3] * (c ? d : $past(e))")
	if err != nil {
		t.Fatal(err)
	}
	ids := ExprIdents(e)
	for _, want := range []string{"a", "b", "c", "d", "e"} {
		if !ids[want] {
			t.Errorf("missing identifier %q in %v", want, ids)
		}
	}
	if len(ids) != 5 {
		t.Errorf("got %d idents, want 5: %v", len(ids), ids)
	}
}

// TestParseErrorPrecedence pins the error each entry point reports when
// its input holds a parse error, a lexical error or both. A lexical error
// anywhere in the input wins over an earlier parse error, and error text
// and positions, including at EOF, are those of lexing the whole input
// before parsing.
func TestParseErrorPrecedence(t *testing.T) {
	type parseFunc func(string) error
	entry := map[string]parseFunc{
		"Parse":     func(s string) error { _, err := Parse(s); return err },
		"ParseSet":  func(s string) error { _, err := ParseSet(s); return err },
		"ParseExpr": func(s string) error { _, err := ParseExpr(s); return err },
	}
	cases := []struct {
		entry, name, src, want string
		lexical                bool
	}{
		{"Parse", "parse error before lexical error",
			"module m;\n  assign = 1;\n  wire [8'q0:0] w;\nendmodule\n",
			"3:9: invalid base specifier in numeric literal", true},
		{"Parse", "lexical error after endmodule",
			"module m;\nendmodule\n$", "3:1: expected identifier after '$'", true},
		{"Parse", "unterminated comment after a parse error",
			"module m (input a b);\nendmodule\n/* open", "3:1: unterminated block comment", true},
		{"Parse", "error at EOF",
			"module m;\n  wire x", "2:9: syntax error: expected ;, found EOF", false},
		{"Parse", "parse error alone",
			"module m;\n  wire x\nendmodule\n", "3:1: syntax error: expected ;, found endmodule", false},
		{"Parse", "item after endmodule",
			"module m;\nendmodule\nwire x;", "3:1: syntax error: unexpected wire after endmodule", false},
		{"ParseSet", "parse error before lexical error",
			"module a;\nendmodule\nmodule b;\n  assign;\nendmodule\n\"open", "6:1: unterminated string literal", true},
		{"ParseSet", "lexical error after endmodule",
			"module a;\nendmodule\n\x01", `3:1: unexpected character "\x01"`, true},
		{"ParseSet", "item after endmodule",
			"module a;\nendmodule\nwire x;", "3:1: syntax error: unexpected wire after endmodule", false},
		{"ParseSet", "error at EOF",
			"module a;\nendmodule\nmodule b", "3:9: syntax error: expected ;, found EOF", false},
		{"ParseExpr", "parse error before lexical error",
			"a + + ) 4'b", "1:9: missing digits in based numeric literal", true},
		{"ParseExpr", "lexical error after a whole expression",
			"a $", "1:3: expected identifier after '$'", true},
		{"ParseExpr", "token after expression",
			"a + b)", "1:6: syntax error: unexpected ) after expression", false},
		{"ParseExpr", "error at EOF",
			"a +", "1:4: syntax error: expected expression, found EOF", false},
		{"ParseExpr", "unclosed paren at EOF",
			"(a", "1:3: syntax error: expected ), found EOF", false},
	}
	for _, c := range cases {
		t.Run(c.entry+"/"+c.name, func(t *testing.T) {
			err := entry[c.entry](c.src)
			if err == nil {
				t.Fatalf("%s(%q) succeeded, want %q", c.entry, c.src, c.want)
			}
			if err.Error() != c.want {
				t.Errorf("%s(%q) = %q, want %q", c.entry, c.src, err, c.want)
			}
			var le *LexError
			if errors.As(err, &le) != c.lexical {
				t.Errorf("%s(%q) returned a %T, want lexical=%v", c.entry, c.src, err, c.lexical)
			}
		})
	}
}

// TestParserWindowPastEOF pins the token window's view past the end of
// the input: the real EOF carries its position, and once next has
// consumed it every later token is a zero-position EOF.
func TestParserWindowPastEOF(t *testing.T) {
	p := newParser("a\n b")
	if got := p.peekTok(2); got.Kind != TokEOF || got.Pos != (Pos{Line: 2, Col: 3}) {
		t.Fatalf("peekTok(2) = %v at %v, want EOF at 2:3", got, got.Pos)
	}
	p.next()
	p.next()
	if eof := p.next(); eof.Pos != (Pos{Line: 2, Col: 3}) {
		t.Fatalf("consumed EOF at %v, want 2:3", eof.Pos)
	}
	for ahead := 0; ahead < lookahead; ahead++ {
		if got := p.peekTok(ahead); got != (Token{Kind: TokEOF}) {
			t.Errorf("peekTok(%d) past EOF = %+v, want a zero-position EOF", ahead, got)
		}
	}
	if got := p.next(); got != (Token{Kind: TokEOF}) {
		t.Errorf("next past EOF = %+v, want a zero-position EOF", got)
	}
}
