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
