package sim

import (
	"context"
	"testing"

	"repro/internal/compile"
	"repro/internal/testenv"
)

// TestVecRunnerAllocs: once a VecRunner has run, further runs of the same
// shape allocate nothing — machine, step set, clock tracker and trace slabs
// are all reset in place — on single- and multi-clock designs in both
// value domains. A two-state machine carries no Unk planes, after its
// first run or after reuse.
func TestVecRunnerAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector changes allocation counts")
	}
	multi := mustCompile(t, twoClockSrc)
	single := mustCompile(t, accuSrc)
	singleStim := VecStimulus{Inputs: single.Inputs(false)}
	for c := 0; c < 24; c++ {
		row := make([]uint64, len(singleStim.Inputs))
		for i := range row {
			row[i] = uint64(c*7+i) & 1
		}
		singleStim.Rows = append(singleStim.Rows, row)
	}
	for _, tc := range []struct {
		name string
		d    *compile.Design
		stim VecStimulus
	}{
		{"single-clock", single, singleStim},
		{"multi-clock", multi, multiClockVecStim(multi, 3, 32)},
	} {
		for _, mode := range []Mode{TwoState, FourState} {
			r := NewVecRunner(tc.d, mode)
			unkPlanes := func(when string) {
				m := &r.r.m
				for _, plane := range []struct {
					name string
					p    []uint64
				}{{"unks", m.unks}, {"ovlUnk", m.ovlUnk}, {"nbaUnk", m.nbaUnk}} {
					if (plane.p != nil) != (mode == FourState) {
						t.Errorf("%s mode %v %s: Unk plane %s allocated = %v", tc.name, mode, when, plane.name, plane.p != nil)
					}
				}
			}
			if _, err := r.Run(context.Background(), tc.stim); err != nil {
				t.Fatal(err)
			}
			unkPlanes("after the first run")
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := r.Run(context.Background(), tc.stim); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s mode %v: %.1f allocations per run, want 0", tc.name, mode, allocs)
			}
			unkPlanes("after reuse")
		}
	}
}
