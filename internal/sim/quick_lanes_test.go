// Lane-mode property tests that need the SVA checker (and therefore an
// external test package: internal/sva imports internal/sim).
package sim_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/compile"
	"repro/internal/sim"
	"repro/internal/sva"
)

// qfailSrc fails p1 whenever a is high while b is low: random lane batches
// reliably contain both failing and passing lanes.
const qfailSrc = `
module qfail (
    input clk,
    input rst,
    input a,
    input b,
    output reg q
);
    always @(posedge clk) begin
        if (rst) q <= 0;
        else q <= a & b;
    end
    p1: assert property (@(posedge clk) disable iff (rst) a |=> q);
endmodule
`

// TestQuickLaneFailureReplay: every lane the batched checker marks failed
// must replay to a scalar failure on that lane's demuxed stimulus — the
// path a caller takes to a failing lane's counterexample — and every lane
// it marks clean must replay to a scalar pass. Runs in both value domains.
func TestQuickLaneFailureReplay(t *testing.T) {
	d, diags, err := compile.Compile(qfailSrc)
	if err != nil || compile.HasErrors(diags) {
		t.Fatal("fixture broken")
	}
	inputs := d.Inputs(false)
	f := func(seed int64, fourState bool) bool {
		mode := sim.TwoState
		if fourState {
			mode = sim.FourState
		}
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		const depth = 8
		stims := make([]sim.VecStimulus, n)
		for j := range stims {
			rows := make([][]uint64, depth)
			for c := range rows {
				row := make([]uint64, len(inputs))
				for i, in := range inputs {
					switch in.Name {
					case "rst":
						if c < 2 {
							row[i] = 1
						}
					default:
						row[i] = rng.Uint64() & in.Mask()
					}
				}
				rows[c] = row
			}
			stims[j] = sim.VecStimulus{Inputs: inputs, Rows: rows}
		}
		ls, err := sim.PackStimuli(stims)
		if err != nil {
			return false
		}
		lt, err := sim.RunLanesCtx(context.Background(), d, ls, mode)
		if err != nil {
			return false
		}
		lres, err := sva.CheckLanes(lt)
		if err != nil {
			return false
		}
		for l := 0; l < n; l++ {
			tr, err := sim.RunVecCtx(context.Background(), d, ls.LaneStimulusAt(l), mode)
			if err != nil {
				return false
			}
			res, err := sva.Check(tr)
			if err != nil {
				return false
			}
			if res.Failed() != (lres.Failed>>uint(l)&1 == 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
