package sim

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/compile"
)

const quickCounterSrc = `
module qcnt (
    input clk,
    input rst_n,
    input en,
    input [3:0] step,
    output reg [7:0] acc
);
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) acc <= 0;
        else if (en) acc <= acc + step;
    end
endmodule
`

// TestQuickSimDeterminism: identical stimuli always produce identical
// traces, regardless of how the stimulus was generated.
func TestQuickSimDeterminism(t *testing.T) {
	d, diags, err := compile.Compile(quickCounterSrc)
	if err != nil || compile.HasErrors(diags) {
		t.Fatal("fixture broken")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stim := vec(d, "rst_n en step", make([][]uint64, 12))
		for i := range stim.Rows {
			stim.Rows[i] = []uint64{
				uint64(boolToU(i > 0 || rng.Intn(2) == 0)),
				uint64(rng.Intn(2)),
				uint64(rng.Intn(16)),
			}
		}
		tr1, err1 := RunVecCtx(context.Background(), d, stim, TwoState)
		tr2, err2 := RunVecCtx(context.Background(), d, stim, TwoState)
		if err1 != nil || err2 != nil {
			return false
		}
		for c := 0; c < tr1.Len(); c++ {
			v1, _ := tr1.Value(c, "acc")
			v2, _ := tr2.Value(c, "acc")
			if v1 != v2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSimMasking: no signal ever exceeds its declared width, for any
// stimulus.
func TestQuickSimMasking(t *testing.T) {
	d, diags, err := compile.Compile(quickCounterSrc)
	if err != nil || compile.HasErrors(diags) {
		t.Fatal("fixture broken")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stim := vec(d, "rst_n en step", make([][]uint64, 16))
		for i := range stim.Rows {
			stim.Rows[i] = []uint64{
				uint64(rng.Intn(2)),
				rng.Uint64(), // deliberately over-wide inputs
				rng.Uint64(),
			}
		}
		tr, err := RunVecCtx(context.Background(), d, stim, TwoState)
		if err != nil {
			return false
		}
		for c := 0; c < tr.Len(); c++ {
			for name, sig := range d.Signals {
				v, ok := tr.Value(c, name)
				if !ok {
					continue
				}
				if v&^sig.Mask() != 0 {
					t.Logf("cycle %d: %s = %#x exceeds %d bits", c, name, v, sig.Width)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickResetDominates: whenever reset is asserted at a sample point,
// the register reads zero on the following cycle, for any stimulus.
func TestQuickResetDominates(t *testing.T) {
	d, diags, err := compile.Compile(quickCounterSrc)
	if err != nil || compile.HasErrors(diags) {
		t.Fatal("fixture broken")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stim := vec(d, "rst_n en step", make([][]uint64, 16))
		for i := range stim.Rows {
			stim.Rows[i] = []uint64{
				uint64(rng.Intn(2)),
				1,
				uint64(1 + rng.Intn(15)),
			}
		}
		tr, err := RunVecCtx(context.Background(), d, stim, TwoState)
		if err != nil {
			return false
		}
		for c := 0; c < tr.Len()-1; c++ {
			rstn, _ := tr.Value(c, "rst_n")
			if rstn == 0 {
				if acc, _ := tr.Value(c+1, "acc"); acc != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func boolToU(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestQuickLanePackDemuxRoundTrip: packing 1..64 stimuli into a lane batch
// and demuxing any lane back must reproduce the original stimulus exactly
// (masked to each input's width), including ragged batches that fill only
// part of the final word.
func TestQuickLanePackDemuxRoundTrip(t *testing.T) {
	d, diags, err := compile.Compile(quickCounterSrc)
	if err != nil || compile.HasErrors(diags) {
		t.Fatal("fixture broken")
	}
	inputs := d.Inputs(false) // all inputs, clock included, mixed widths
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		depth := 1 + rng.Intn(8)
		stims := make([]VecStimulus, n)
		for j := range stims {
			rows := make([][]uint64, depth)
			for c := range rows {
				row := make([]uint64, len(inputs))
				for i := range row {
					row[i] = rng.Uint64() // deliberately unmasked
				}
				rows[c] = row
			}
			stims[j] = VecStimulus{Inputs: inputs, Rows: rows}
		}
		ls, err := PackStimuli(stims)
		if err != nil || ls.N != n || ls.Depth != depth {
			return false
		}
		for j := 0; j < n; j++ {
			back := ls.LaneStimulusAt(j)
			if len(back.Rows) != depth {
				return false
			}
			for c := 0; c < depth; c++ {
				for i, in := range inputs {
					if back.Rows[c][i] != stims[j].Rows[c][i]&in.Mask() {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLanePackRejectsBadBatches: the packer enforces the 1..64 bound
// and identical stimulus shapes across lanes.
func TestQuickLanePackRejectsBadBatches(t *testing.T) {
	d, _, err := compile.Compile(quickCounterSrc)
	if err != nil {
		t.Fatal(err)
	}
	inputs := d.Inputs(true)
	mk := func(depth int) VecStimulus {
		rows := make([][]uint64, depth)
		for c := range rows {
			rows[c] = make([]uint64, len(inputs))
		}
		return VecStimulus{Inputs: inputs, Rows: rows}
	}
	if _, err := PackStimuli(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	big := make([]VecStimulus, 65)
	for i := range big {
		big[i] = mk(4)
	}
	if _, err := PackStimuli(big); err == nil {
		t.Fatal("65-lane batch accepted")
	}
	if _, err := PackStimuli([]VecStimulus{mk(4), mk(5)}); err == nil {
		t.Fatal("mismatched depths accepted")
	}
}
