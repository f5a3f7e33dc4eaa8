// internal/compile folded the bound 1 << 64 as 1 << (64 & 63), so
// q[1 << 64 : 1] compiled as q[1:1], while the planner folded it with the
// reference interpreter's arithmetic, where a shift by 64 or more yields
// 0, as the reversed q[0:1] and built no plan: every run of the design
// failed with "sim: design has no two-state execution plan". One folder
// now serves both, and the select is a reversed part-select compile error.
module fz (
    input clk,
    input [7:0] v,
    output reg [7:0] q
);
    always @(posedge clk) q[1 << 64 : 1] <= v;
    a0: assert property (@(posedge clk) q == q);
endmodule
