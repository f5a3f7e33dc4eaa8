package sva

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/verilog"
)

// LaneResult summarises checking all assertions against one lane batch.
// It deliberately carries only what Batch needs to stay byte-equivalent
// with scalar runs: which lanes failed (those are demuxed and checked on
// the scalar checker for the full Failure/log detail) and, per assertion,
// which lanes logged at least one counted (non-vacuous) attempt — callers
// record attempted-ness, not counts.
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
// one clock; Batch then checks every stimulus on the scalar engine, which
// reproduces scalar semantics exactly.
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
