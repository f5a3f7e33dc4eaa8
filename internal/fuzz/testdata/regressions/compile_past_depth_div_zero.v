// internal/compile did not fold W/0, a division by zero, and so let the
// $past depth through unchecked. The two-state planner folded it to 0 and
// every run failed on an out-of-range depth; the four-state planner folded
// it to x and built no plan. One folder now serves both, and a constant
// that divides by zero, x in the four-state domain, is a compile error.
module fz (
    input clk,
    input [3:0] v,
    output [3:0] y
);
    localparam W = 2;
    assign y = v;
    a0: assert property (@(posedge clk) y == $past(v, W/0));
endmodule
