// Native-fuzzer-found (FuzzCompileImpliesPlan): internal/compile turned a
// wire's initialiser into a continuous assignment without the checks every
// other expression gets, so a string literal, an undeclared name or an
// unsupported system function there compiled, and the planner then built
// no plan: every run failed with "sim: design has no two-state execution
// plan". The initialiser is now checked like an assign's right-hand side,
// and this program is a "string literal in expression context" compile
// error.
module fz (
    input clk,
    output out0
);
    wire w0 = ("");
    assign out0 = w0;
endmodule
