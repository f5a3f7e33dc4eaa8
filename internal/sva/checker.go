package sva

import (
	"context"

	"repro/internal/compile"
	"repro/internal/sim"
)

// Outcome is one stimulus' verdict from a Checker.
//
// Ownership: a passing outcome's Trace and Result belong to the checker
// that produced it and stay valid only until that checker's next check. A
// failing outcome's Trace and Result are detached from the checker and
// belong to the caller for good.
type Outcome struct {
	// Pass reports that no assertion failed.
	Pass bool
	// Result and Trace are the check and the trace it ran over.
	Result *Result
	Trace  *sim.Trace
}

// Attempted reports whether the named assertion logged at least one
// counted (pass or fail) attempt.
func (o Outcome) Attempted(name string) bool {
	return o.Result.Attempts[name] > 0
}

// Checker checks stimuli against one design's assertions on the scalar
// engine. It keeps one sim.VecRunner, binds each assertion's compiled
// evaluators to the runner's trace once, and refills one Result per
// check, so a loop over many stimuli allocates per design rather than per
// stimulus. A failing check hands its trace and Result to the caller (see
// Outcome), and the next check runs on fresh ones.
// A Checker is not safe for concurrent use.
type Checker struct {
	run *sim.VecRunner
	b   binding
	res *Result
}

// NewChecker returns a scalar checker for d's assertions in mode.
func NewChecker(d *compile.Design, mode sim.Mode) *Checker {
	return &Checker{run: sim.NewVecRunner(d, mode), res: &Result{Attempts: map[string]int{}}}
}

// Check simulates stim and checks every assertion over its trace.
func (c *Checker) Check(ctx context.Context, stim sim.VecStimulus) (Outcome, error) {
	tr, err := c.run.Run(ctx, stim)
	if err != nil {
		return Outcome{}, err
	}
	if tr != c.b.tr {
		c.b.bind(tr)
	}
	res := c.res
	res.Failures = res.Failures[:0]
	clear(res.Attempts)
	if err := c.b.check(res); err != nil {
		return Outcome{}, err
	}
	if !res.Failed() {
		return Outcome{Pass: true, Result: res, Trace: tr}, nil
	}
	// Hand the failing trace and Result over; the next check starts fresh.
	c.run.Detach()
	c.res = &Result{Attempts: map[string]int{}}
	return Outcome{Result: res, Trace: tr}, nil
}
