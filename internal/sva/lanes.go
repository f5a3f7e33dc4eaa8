package sva

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/verilog"
)

// LaneResult summarises checking all assertions against one lane batch.
// It carries only what a caller needs to match scalar runs lane by lane:
// which lanes failed (a caller demuxes those and checks them on the scalar
// engine for the full Failure/log detail) and, per assertion, which lanes
// logged at least one counted (non-vacuous) attempt — attempted-ness, not
// counts. No production path runs it; the benchmark's traced lane rows
// and the differential tests do.
type LaneResult struct {
	// Failed has bit l set when lane l failed at least one assertion.
	Failed uint64
	// Attempted maps assertion name to the mask of lanes with at least one
	// counted (pass or fail) attempt.
	Attempted map[string]uint64
}

// CheckLanes evaluates every assertion of the batch's design across all
// lanes at once on the same monitor as Check, fed packed truth words: one
// word op decides a term for 64 lanes. It returns an error when a property
// expression fails to evaluate in any lane, or the design has more than
// one clock; such a batch must be checked one stimulus at a time on the
// scalar engine, which reproduces scalar semantics exactly.
func CheckLanes(lt *sim.LaneTrace) (*LaneResult, error) {
	// Multi-clock designs are out of the packed model's reach: assertions
	// sample only on their own clock's ticks, and each lane carries its own
	// clock stimulus, so the tick subsequences diverge across lanes and no
	// single truth word describes "the same attempt position" in all of
	// them. Report it as a lane-compilation gap so callers fall back to
	// scalar checking, which applies per-stimulus domain ticks exactly.
	if lt.Design.MultiClock() {
		return nil, fmt.Errorf("sva: lane checking does not support multi-clock designs (%d domains)", len(lt.Design.Domains))
	}
	n, active := lt.Len(), lt.ActiveMask()
	// A lane plan lowers every assertion expression, so each has a word.
	word := func(e verilog.Expr) term { return term{expr: e, fn: lt.CompileLaneBool(e)} }
	res := &LaneResult{Attempted: map[string]uint64{}}
	var m monitor
	for i := range lt.Design.Asserts {
		p := newProperty(&lt.Design.Asserts[i], word)
		m.reset(&p, n, active)
		for c := 0; c < n && m.tick(c, c); c++ {
		}
		if m.err != nil {
			return nil, m.err
		}
		for _, e := range m.fails {
			res.Failed |= e.lanes
		}
		if m.counted != 0 {
			res.Attempted[p.a.Name] |= m.counted
		}
	}
	return res, nil
}
