package sva

import (
	"context"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/compile"
	"repro/internal/sim"
	"repro/internal/testenv"
)

// crossLatch latches d into the clk_a domain and qa into the clk_b domain,
// with no reset: in the four-state domain qa and qb stay x until their
// first tick. p_low fails whenever qa and d are both high (or x and high)
// at a clk_b tick.
const crossLatch = `
module cross_latch (
    input clk_a,
    input clk_b,
    input d,
    output reg qa,
    output reg qb
);
    always @(posedge clk_a) qa <= d;
    always @(posedge clk_b) qb <= qa;
    p_low: assert property (@(posedge clk_b) !(qa && d));
endmodule
`

// crossStim drives clk_a at period 2, clk_b at period 4 and d by dv.
func crossStim(d *compile.Design, dv func(c int) uint64) sim.VecStimulus {
	stim := sim.VecStimulus{Inputs: []*compile.Signal{d.Signals["clk_a"], d.Signals["clk_b"], d.Signals["d"]}}
	for c := 0; c < 12; c++ {
		stim.Rows = append(stim.Rows, []uint64{uint64(c) & 1, uint64(c) >> 1 & 1, dv(c)})
	}
	return stim
}

// outcomeCopy deep-copies everything observable about an outcome: every
// trace row of both planes, the fired masks and the Result.
type outcomeCopy struct {
	Pass       bool
	Rows, Unks [][]uint64
	Fired      []uint64
	Failures   []Failure
	Attempts   map[string]int
}

func copyOutcome(o Outcome) outcomeCopy {
	oc := outcomeCopy{Pass: o.Pass, Failures: slices.Clone(o.Result.Failures), Attempts: maps.Clone(o.Result.Attempts)}
	for c := 0; c < o.Trace.Len(); c++ {
		oc.Rows = append(oc.Rows, slices.Clone(o.Trace.Row(c)))
		oc.Unks = append(oc.Unks, slices.Clone(o.Trace.UnkRow(c)))
		oc.Fired = append(oc.Fired, o.Trace.Fired(c))
	}
	return oc
}

// TestCheckerFailingOutcomeDetached: a failing outcome's trace and Result
// belong to the caller. Further checks on the same checker, passing and
// failing, leave its rows, unknown planes, fired masks and Result as they
// were, and all of them equal a fresh checker's check of the stimulus.
func TestCheckerFailingOutcomeDetached(t *testing.T) {
	d := mustCompile(t, crossLatch)
	if !d.MultiClock() {
		t.Fatalf("fixture is not multi-clock: %v", d.Domains)
	}
	ctx := context.Background()
	fail := crossStim(d, func(int) uint64 { return 1 })
	later := []sim.VecStimulus{
		crossStim(d, func(int) uint64 { return 0 }),
		crossStim(d, func(c int) uint64 { return uint64(c) >> 2 & 1 }),
		fail,
		crossStim(d, func(c int) uint64 { return uint64(c) & 1 }),
	}
	for _, mode := range []sim.Mode{sim.TwoState, sim.FourState} {
		chk := NewChecker(d, mode)
		o, err := chk.Check(ctx, fail)
		if err != nil || o.Pass {
			t.Fatalf("mode %v: err=%v pass=%v, want a failure", mode, err, o.Pass)
		}
		before := copyOutcome(o)
		passed := false
		for _, stim := range later {
			lo, err := chk.Check(ctx, stim)
			if err != nil {
				t.Fatal(err)
			}
			passed = passed || lo.Pass
		}
		if !passed {
			t.Fatalf("mode %v: no later stimulus passed; the fixture must mix verdicts", mode)
		}
		if after := copyOutcome(o); !reflect.DeepEqual(before, after) {
			t.Fatalf("mode %v: later checks changed a detached outcome:\nbefore %+v\nafter  %+v", mode, before, after)
		}
		one, err := NewChecker(d, mode).Check(ctx, fail)
		if err != nil {
			t.Fatal(err)
		}
		if want := copyOutcome(one); !reflect.DeepEqual(before, want) {
			t.Fatalf("mode %v: checker outcome differs from one-shot:\nchecker  %+v\none-shot %+v", mode, before, want)
		}
	}
}

// TestCheckerAllocs: once a checker has run, checking a passing stimulus
// on a single-clock design allocates nothing: the run state, the bound
// evaluators and the Result are all reused.
func TestCheckerAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector changes allocation counts")
	}
	d := mustCompile(t, accuGood)
	stim := sim.VecStimulus{Inputs: []*compile.Signal{d.Signals["rst_n"], d.Signals["in"], d.Signals["valid_in"]}}
	for c := uint64(0); c < 16; c++ {
		stim.Rows = append(stim.Rows, []uint64{min(c, 1), c, c >> 1 & 1})
	}
	for _, mode := range []sim.Mode{sim.TwoState, sim.FourState} {
		chk := NewChecker(d, mode)
		allocs := testing.AllocsPerRun(20, func() {
			o, err := chk.Check(context.Background(), stim)
			if err != nil || !o.Pass {
				t.Fatalf("mode %v: err=%v pass=%v, want a pass", mode, err, o.Pass)
			}
		})
		if allocs != 0 {
			t.Errorf("mode %v: %.1f allocations per passing check, want 0", mode, allocs)
		}
	}
}
