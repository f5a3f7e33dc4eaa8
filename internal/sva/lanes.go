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
// lanes at once, running the same bounded attempt automaton as Check but on
// packed truth words: one word op decides a term for 64 lanes. It returns
// an error when any property expression was not lane-compiled (or fails to
// evaluate); Batch then checks every stimulus on the scalar engine, which
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
	n := lt.Len()
	active := lt.ActiveMask()
	res := &LaneResult{Attempted: map[string]uint64{}}
	for _, a := range lt.Design.Asserts {
		// Resolve each property expression to per-cycle truth words up
		// front; every start position reuses them.
		evalAll := func(e verilog.Expr) ([]uint64, error) {
			fn := lt.CompileLaneBool(e)
			if fn == nil {
				return nil, fmt.Errorf("sva: %s is not lane-compiled", verilog.ExprString(e))
			}
			tw := make([]uint64, n)
			for c := 0; c < n; c++ {
				t, _, err := fn(c)
				if err != nil {
					return nil, err
				}
				tw[c] = t
			}
			return tw, nil
		}
		// An x disable condition is not true, so the true-mask alone decides
		// disabling, matching the scalar checker.
		var disW []uint64
		if a.DisableIff != nil {
			w, err := evalAll(a.DisableIff)
			if err != nil {
				return nil, err
			}
			disW = w
		}
		terms := func(ts []verilog.SeqTerm) ([][]uint64, error) {
			out := make([][]uint64, len(ts))
			for i, t := range ts {
				w, err := evalAll(t.Expr)
				if err != nil {
					return nil, err
				}
				out[i] = w
			}
			return out, nil
		}
		anteW, err := terms(a.Seq.Antecedent)
		if err != nil {
			return nil, err
		}
		consW, err := terms(a.Seq.Consequent)
		if err != nil {
			return nil, err
		}

		var attempted uint64
		for start := 0; start < n; start++ {
			// alive tracks lanes whose attempt is still matching; lanes leave
			// it by being disabled or by a non-matching antecedent term
			// (vacuous, uncounted) or by failing/passing the consequent.
			alive := ^uint64(0)
			cursor := start
			if a.Seq.Impl != verilog.ImplNone {
				for i, t := range a.Seq.Antecedent {
					cursor += t.DelayFromPrev
					if cursor >= n {
						alive = 0 // pending: uncounted in every lane
						break
					}
					if disW != nil {
						alive &^= disW[cursor]
					}
					// A false or x antecedent term does not match.
					alive &= anteW[i][cursor]
					if alive == 0 {
						break
					}
				}
				if alive == 0 {
					continue
				}
				if a.Seq.Impl == verilog.ImplNonOverlap {
					cursor++
				}
			}
			pending := false
			for i, t := range a.Seq.Consequent {
				cursor += t.DelayFromPrev
				if cursor >= n {
					pending = true
					break
				}
				if disW != nil {
					alive &^= disW[cursor]
				}
				if alive == 0 {
					break
				}
				// A consequent term that is not true (false or x) fails the
				// attempt in that lane.
				fail := alive &^ consW[i][cursor]
				res.Failed |= fail & active
				attempted |= fail
				alive &= consW[i][cursor]
				if alive == 0 {
					break
				}
			}
			if !pending {
				attempted |= alive // surviving lanes complete a passing attempt
			}
		}
		if attempted&active != 0 {
			res.Attempted[a.Name] = attempted & active
		}
	}
	return res, nil
}
