package sva_test

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/sim"
	"repro/internal/sva"
	"repro/internal/verilog"
)

// This file keeps the per-attempt checkers the monitor replaced, as
// oracles: oracleCheck walks every attempt from its own start over a
// trace, and oracleLanes does the same over packed truth words. They are
// deliberately naive — each re-evaluates a cycle's terms once per attempt
// that reaches it — so the monitor is held to a definition, not to a
// second optimisation of itself.

// oracleCheck is sva.Check computed one attempt at a time: for each
// assertion in order, every start tick in order, the attempt's terms in
// order, returning the first evaluation error it meets.
func oracleCheck(tr *sim.Trace) (*sva.Result, error) {
	res := &sva.Result{Attempts: map[string]int{}}
	for _, a := range tr.Design.Asserts {
		ticks := oracleTicks(tr, a)
		var disable sim.CompiledExpr4
		if a.DisableIff != nil {
			disable = tr.CompileExpr4(a.DisableIff)
		}
		compile := func(ts []verilog.SeqTerm) []sim.CompiledExpr4 {
			var out []sim.CompiledExpr4
			for _, t := range ts {
				out = append(out, tr.CompileExpr4(t.Expr))
			}
			return out
		}
		ante, cons := compile(a.Seq.Antecedent), compile(a.Seq.Consequent)
		for start := range ticks {
			f, counted, err := oracleAttempt(a, ticks, start, disable, ante, cons)
			if err != nil {
				return nil, err
			}
			if counted {
				res.Attempts[a.Name]++
			}
			if f != nil {
				res.Failures = append(res.Failures, *f)
			}
		}
	}
	return res, nil
}

// oracleTicks returns the cycles an assertion samples at: every row, or on
// a multi-clock trace the ticks of the assertion's clock domain.
func oracleTicks(tr *sim.Trace, a compile.ResolvedAssert) []int {
	d := tr.Design
	if d.MultiClock() && a.Clock.Signal != "" && a.Clock.Edge != verilog.EdgeAny {
		for k, cd := range d.Domains {
			if cd.Signal == a.Clock.Signal && cd.Edge == a.Clock.Edge {
				return tr.DomainCycles(k)
			}
		}
	}
	all := make([]int, tr.Len())
	for c := range all {
		all[c] = c
	}
	return all
}

// oracleAttempt checks the attempt starting at tick position start. It
// reports the failure, if any, and whether the attempt counts (it passed
// or failed; a disabled, non-matching or pending attempt does not).
func oracleAttempt(a compile.ResolvedAssert, ticks []int, start int, disable sim.CompiledExpr4, ante, cons []sim.CompiledExpr4) (*sva.Failure, bool, error) {
	cursor := start
	// at moves the cursor d ticks on and evaluates fn there, first checking
	// the disable condition (an x disable condition does not disable).
	at := func(d int, fn sim.CompiledExpr4) (v sim.V4, cyc int, live bool, err error) {
		cursor += d
		if cursor >= len(ticks) {
			return v, 0, false, nil // pending
		}
		cyc = ticks[cursor]
		if disable != nil {
			dv, err := disable(cyc)
			if err != nil || dv.IsTrue() {
				return v, cyc, false, err
			}
		}
		v, err = fn(cyc)
		return v, cyc, err == nil, err
	}
	if a.Seq.Impl != verilog.ImplNone {
		for i, t := range a.Seq.Antecedent {
			v, _, live, err := at(t.DelayFromPrev, ante[i])
			if !live || err != nil || !v.IsTrue() {
				return nil, false, err // a false or x antecedent term does not match
			}
		}
		if a.Seq.Impl == verilog.ImplNonOverlap {
			cursor++
		}
	}
	for i, t := range a.Seq.Consequent {
		v, cyc, live, err := at(t.DelayFromPrev, cons[i])
		if !live || err != nil {
			return nil, false, err
		}
		if !v.IsTrue() {
			return &sva.Failure{Assert: a, StartCycle: ticks[start], FailCycle: cyc, Term: t.Expr, Unknown: v.IsXBool()}, true, nil
		}
	}
	return nil, true, nil
}

// oracleLanes is sva.CheckLanes computed one start position at a time over
// truth words evaluated up front for every cycle.
func oracleLanes(lt *sim.LaneTrace) (*sva.LaneResult, error) {
	if lt.Design.MultiClock() {
		return nil, fmt.Errorf("oracle: multi-clock lane batch")
	}
	n, active := lt.Len(), lt.ActiveMask()
	words := func(e verilog.Expr) ([]uint64, error) {
		fn := lt.CompileLaneBool(e)
		if fn == nil {
			return nil, fmt.Errorf("oracle: %s is not lane-compiled", verilog.ExprString(e))
		}
		tw := make([]uint64, n)
		for c := range tw {
			t, _, err := fn(c)
			if err != nil {
				return nil, err
			}
			tw[c] = t
		}
		return tw, nil
	}
	res := &sva.LaneResult{Attempted: map[string]uint64{}}
	for _, a := range lt.Design.Asserts {
		var dis []uint64
		if a.DisableIff != nil {
			var err error
			if dis, err = words(a.DisableIff); err != nil {
				return nil, err
			}
		}
		terms := func(ts []verilog.SeqTerm) ([][]uint64, error) {
			var out [][]uint64
			for _, t := range ts {
				w, err := words(t.Expr)
				if err != nil {
					return nil, err
				}
				out = append(out, w)
			}
			return out, nil
		}
		ante, err := terms(a.Seq.Antecedent)
		if err != nil {
			return nil, err
		}
		cons, err := terms(a.Seq.Consequent)
		if err != nil {
			return nil, err
		}
		var attempted uint64
		for start := 0; start < n; start++ {
			alive, cursor, pending := active, start, false
			// step moves the cursor d cycles on and drops the lanes disabled
			// there; it reports false when the attempt is pending or dead.
			step := func(d int) bool {
				if cursor += d; cursor >= n {
					pending = true
					return false
				}
				if dis != nil {
					alive &^= dis[cursor]
				}
				return alive != 0
			}
			if a.Seq.Impl != verilog.ImplNone {
				for i, t := range a.Seq.Antecedent {
					if !step(t.DelayFromPrev) {
						break
					}
					alive &= ante[i][cursor]
				}
				if pending || alive == 0 {
					continue
				}
				if a.Seq.Impl == verilog.ImplNonOverlap {
					cursor++
				}
			}
			for i, t := range a.Seq.Consequent {
				if !step(t.DelayFromPrev) {
					break
				}
				fail := alive &^ cons[i][cursor]
				res.Failed |= fail
				attempted |= fail
				alive &= cons[i][cursor]
			}
			if !pending {
				attempted |= alive
			}
		}
		if attempted != 0 {
			res.Attempted[a.Name] |= attempted
		}
	}
	return res, nil
}
