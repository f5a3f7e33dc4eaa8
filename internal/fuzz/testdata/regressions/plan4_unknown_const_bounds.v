// The four-state plan lowering used to constant-fold x/z-bearing slice
// bounds through the two-state evaluator (x bits read as 0), so the plan
// computed in0[2:0] where the reference interpreter's four-state rule
// makes the whole select all-x — a plane-for-plane engine-equivalence
// violation (review-found, reproduced as plan o=0x2 known vs reference
// all-x). An x/z-bearing part-select bound is now a compile error, like
// the x/z-bearing replication count this program also held: every
// constant internal/compile accepts has one value in both value domains.
module fz (
    input clk,
    input [3:0] in0,
    output [2:0] o
);
    reg [3:0] r0 = 4'b0000;
    assign o = in0[2'b1x:0];
    always @(posedge clk) begin
        r0[2'b1x:0] <= in0[2:0];
    end
    a0: assert property (@(posedge clk) r0 == 4'd0);
endmodule
