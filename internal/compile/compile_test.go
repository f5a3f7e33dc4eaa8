package compile

import (
	"strings"
	"testing"
)

const goodSrc = `
module counter (
    input clk,
    input rst_n,
    input en,
    output reg [3:0] count,
    output wrap
);
    parameter MAX = 9;
    assign wrap = count == MAX;
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) count <= 0;
        else if (en) begin
            if (wrap) count <= 0;
            else count <= count + 1;
        end
    end
    property wrap_check;
        @(posedge clk) disable iff (!rst_n)
        wrap && en |-> ##1 count == 0;
    endproperty
    wrap_assert: assert property (wrap_check)
        else $error("count must wrap to zero");
endmodule
`

func TestCompileGood(t *testing.T) {
	d, diags, err := Compile(goodSrc)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if HasErrors(diags) {
		t.Fatalf("unexpected errors:\n%s", FormatDiags(diags))
	}
	if d == nil {
		t.Fatal("nil design")
	}
	if got := d.Signals["count"]; got == nil || got.Width != 4 || !got.IsReg || got.Kind != SigOutput {
		t.Errorf("count signal = %+v", got)
	}
	if got := d.Signals["wrap"]; got == nil || got.Width != 1 || got.IsReg {
		t.Errorf("wrap signal = %+v", got)
	}
	if d.Params["MAX"] != 9 {
		t.Errorf("MAX = %d, want 9", d.Params["MAX"])
	}
	if len(d.SeqAlways) != 1 || len(d.CombAlways) != 0 {
		t.Errorf("always split: seq=%d comb=%d", len(d.SeqAlways), len(d.CombAlways))
	}
	if len(d.Asserts) != 1 {
		t.Fatalf("asserts = %d, want 1", len(d.Asserts))
	}
	a := d.Asserts[0]
	if a.Name != "wrap_assert" {
		t.Errorf("assert name = %q", a.Name)
	}
	if a.Seq == nil || a.DisableIff == nil {
		t.Error("assert property not fully resolved")
	}
	if d.ClockName() != "clk" {
		t.Errorf("clock = %q", d.ClockName())
	}
	rst := d.Reset()
	if !rst.Present || rst.Name != "rst_n" || !rst.ActiveLow {
		t.Errorf("reset = %+v", rst)
	}
}

func TestCompileErrors(t *testing.T) {
	tests := []struct {
		name    string
		src     string
		wantMsg string
	}{
		{
			"undeclared identifier",
			"module m (input a, output w);\nassign w = a & ghost;\nendmodule",
			"undeclared identifier",
		},
		{
			"assign to input",
			"module m (input a, input b, output w);\nassign w = a;\nassign a = b;\nendmodule",
			"cannot assign to input",
		},
		{
			"procedural assign to wire",
			"module m (input clk, input a, output w);\nalways @(posedge clk) w <= a;\nendmodule",
			"procedural assignment to wire",
		},
		{
			"continuous assign to reg",
			"module m (input a, output reg w);\nassign w = a;\nendmodule",
			"continuous assignment to reg",
		},
		{
			"redeclared signal",
			"module m (input a, output w);\nwire x;\nwire x;\nassign w = a;\nendmodule",
			"redeclared",
		},
		{
			// The plan would read the wire while lint folds the parameter.
			"signal named like a parameter",
			"module m (input a, output [3:0] q);\nparameter P = 3;\nwire [3:0] P;\nassign P = 4'd2;\nassign q = P + 4'd1;\nendmodule",
			"3:1: error: signal P redeclared: P is a parameter",
		},
		{
			"parameter named like a signal",
			"module m (input a, output [3:0] q);\nwire [3:0] P;\nlocalparam P = 3;\nassign P = 4'd2;\nassign q = P + 4'd1;\nendmodule",
			"3:12: error: parameter P redeclared: P is a signal",
		},
		{
			"port named like a parameter",
			"module m #(parameter a = 1) (input a, output w);\nassign w = a;\nendmodule",
			"port a redeclared: a is a parameter",
		},
		{
			"parameter named like a port",
			"module m (input a, output w);\nparameter a = 1;\nassign w = a;\nendmodule",
			"2:11: error: parameter a redeclared: a is a port",
		},
		{
			"dangling property reference",
			"module m (input clk, input a, output w);\nassign w = a;\nx: assert property (missing_prop);\nendmodule",
			"undeclared property",
		},
		{
			"mixed sensitivity",
			"module m (input clk, input a, output reg w);\nalways @(posedge clk or a) w <= a;\nendmodule",
			"mixed edge and level",
		},
		{
			"input declared reg",
			"module m (input reg a, output w);\nassign w = a;\nendmodule",
			"declared reg",
		},
		{
			"huge width",
			"module m (input a, output w);\nwire [127:0] big;\nassign w = a;\nendmodule",
			"exceeds 64-bit",
		},
		{
			"unsupported system function",
			"module m (input a, output w);\nassign w = $bogus(a);\nendmodule",
			"unsupported system function",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d, diags, err := Compile(tt.src)
			if err != nil {
				t.Fatalf("parse error (want semantic error): %v", err)
			}
			if !HasErrors(diags) {
				t.Fatalf("no errors reported")
			}
			if d != nil {
				t.Error("design returned despite errors")
			}
			if !strings.Contains(FormatDiags(diags), tt.wantMsg) {
				t.Errorf("diagnostics %q missing %q", FormatDiags(diags), tt.wantMsg)
			}
		})
	}
}

func TestCompileSyntaxError(t *testing.T) {
	_, _, err := Compile("module m (input a;\nendmodule")
	if err == nil {
		t.Fatal("want parse error")
	}
}

func TestOutputRegSplitDecl(t *testing.T) {
	src := `
module m (
    input clk,
    output q
);
    reg q;
    always @(posedge clk) q <= 1;
endmodule
`
	d, diags, err := Compile(src)
	if err != nil || HasErrors(diags) {
		t.Fatalf("err=%v diags=%s", err, FormatDiags(diags))
	}
	if !d.Signals["q"].IsReg {
		t.Error("q should be reg after split declaration")
	}
}

func TestParamWidths(t *testing.T) {
	src := `
module m #(parameter W = 8) (
    input clk,
    input [W-1:0] d,
    output reg [W-1:0] q
);
    always @(posedge clk) q <= d;
endmodule
`
	d, diags, err := Compile(src)
	if err != nil || HasErrors(diags) {
		t.Fatalf("err=%v diags=%s", err, FormatDiags(diags))
	}
	if d.Signals["d"].Width != 8 || d.Signals["q"].Width != 8 {
		t.Errorf("widths: d=%d q=%d, want 8", d.Signals["d"].Width, d.Signals["q"].Width)
	}
}

func TestRegInit(t *testing.T) {
	src := `
module m (
    input clk,
    output reg [3:0] q
);
    reg [3:0] state = 4'd5;
    initial q = 4'd2;
    always @(posedge clk) q <= state;
endmodule
`
	d, diags, err := Compile(src)
	if err != nil || HasErrors(diags) {
		t.Fatalf("err=%v diags=%s", err, FormatDiags(diags))
	}
	if d.RegInit["state"] != 5 {
		t.Errorf("state init = %d, want 5", d.RegInit["state"])
	}
	if d.RegInit["q"] != 2 {
		t.Errorf("q init = %d, want 2", d.RegInit["q"])
	}
}

func TestSignalMask(t *testing.T) {
	tests := []struct {
		width int
		want  uint64
	}{
		{1, 1},
		{4, 15},
		{8, 255},
		{64, ^uint64(0)},
	}
	for _, tt := range tests {
		s := &Signal{Width: tt.width}
		if got := s.Mask(); got != tt.want {
			t.Errorf("Mask(width=%d) = %#x, want %#x", tt.width, got, tt.want)
		}
	}
}

func TestInputsOutputs(t *testing.T) {
	d, diags, err := Compile(goodSrc)
	if err != nil || HasErrors(diags) {
		t.Fatal("compile failed")
	}
	ins := d.Inputs(true)
	if len(ins) != 1 || ins[0].Name != "en" {
		t.Errorf("Inputs(skip) = %v", ins)
	}
	all := d.Inputs(false)
	if len(all) != 3 {
		t.Errorf("Inputs(all) = %d, want 3", len(all))
	}
	outs := d.Outputs()
	if len(outs) != 2 || outs[0].Name != "count" || outs[1].Name != "wrap" {
		t.Errorf("Outputs = %v", outs)
	}
}
