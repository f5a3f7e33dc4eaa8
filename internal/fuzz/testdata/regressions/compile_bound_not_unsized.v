// internal/compile folded ~0 in 64 bits, so q[~0 : 4294967296] compiled
// in descending order, while the planner folded the unsized 0 in 32 bits,
// as the reference interpreter does, into the reversed
// q[4294967295:4294967296] and built no plan: every run of the design
// failed with "sim: design has no two-state execution plan". One folder
// now serves both, and the select is a reversed part-select compile error.
module fz (
    input clk,
    input [7:0] v,
    output reg [7:0] q
);
    always @(posedge clk) q[~0 : 4294967296] <= v;
    a0: assert property (@(posedge clk) q == q);
endmodule
