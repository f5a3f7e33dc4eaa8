package sim

import (
	"context"
	"testing"

	"repro/internal/compile"
	"repro/internal/testenv"
)

// TestRunLanesAllocs bounds what one RunLanesCtx batch allocates — machine,
// registers and one snapshot per sampled cycle — in each value domain, and
// checks that a two-state machine carries no Unk planes at all.
func TestRunLanesAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector changes allocation counts")
	}
	single := mustCompile(t, accuSrc)
	singleStims := make([]VecStimulus, 64)
	for l := range singleStims {
		st := VecStimulus{Inputs: single.Inputs(false)}
		for c := 0; c < 24; c++ {
			row := make([]uint64, len(st.Inputs))
			for i := range row {
				row[i] = uint64(c*7+i*3+l) % 5
			}
			st.Rows = append(st.Rows, row)
		}
		singleStims[l] = st
	}
	multi := mustCompile(t, twoClockSrc)
	multiStims := make([]VecStimulus, 64)
	for l := range multiStims {
		multiStims[l] = multiClockVecStim(multi, uint64(l), 24)
	}
	for _, tc := range []struct {
		name  string
		d     *compile.Design
		stims []VecStimulus
		want  [2]float64 // allocations per batch, two-state and four-state
	}{
		{"single-clock", single, singleStims, [2]float64{108, 206}},
		{"multi-clock", multi, multiStims, [2]float64{99, 153}},
	} {
		ls, err := PackStimuli(tc.stims)
		if err != nil {
			t.Fatal(err)
		}
		if m := newLmach(PlanOf(tc.d).lanes(TwoState)); m.ubits != nil || m.uwide != nil || m.uregs != nil ||
			m.ovlUBits != nil || m.ovlUWide != nil || m.nbaUBits != nil || m.nbaUWide != nil {
			t.Errorf("%s: two-state lane machine carries Unk planes", tc.name)
		}
		for _, mode := range []Mode{TwoState, FourState} {
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := RunLanesCtx(context.Background(), tc.d, ls, mode); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.want[mode] {
				t.Errorf("%s mode %v: %.0f allocations per batch, want at most %.0f", tc.name, mode, allocs, tc.want[mode])
			}
		}
	}
}
