// Fuzz-found (engine-equivalence, lane-sva-mask): the batched lane SVA
// checker ran the attempt automaton over raw trace rows, but on a
// multi-clock design assertions sample only on their own clock's ticks —
// and each lane carries its own clock stimulus, so the tick subsequences
// diverge across lanes and no packed truth word describes the same
// attempt position in all of them. CheckLanes reported all lanes failing
// $stable(r0) while the per-lane scalar checker (domain ticks applied)
// reported none. Lane checking now declines multi-clock designs so
// callers fall back to demuxed scalar checking. Found by the first seed
// of the hierarchical generator; minimized by hand. The lane engine has
// since been removed; the program stays as a scalar regression for
// per-domain assertion ticks on a multi-clock design.
module fz_leaf0 (
    input clk,
    input d,
    output q
);
    reg r0;
    always @(posedge clk)
        r0 <= d;
    assign q = r0;
    chk0: assert property (@(posedge clk) $stable(r0) || d);
endmodule

module fz (
    input clk,
    input clk2,
    input d,
    output q
);
    fz_leaf0 u0 (.clk(clk2), .d(d), .q(q));
    reg acc;
    always @(posedge clk)
        acc <= q;
endmodule
