package sva

import (
	"context"

	"repro/internal/compile"
	"repro/internal/sim"
)

// Outcome is one stimulus' verdict from a Checker or a Batch.
//
// Ownership: a passing outcome's Trace and Result belong to the checker
// that produced it and stay valid only until that checker's next check (a
// Batch's scalar lanes run on the checker that made it). A failing
// outcome's Trace and Result are detached from the checker and belong to
// the caller for good.
type Outcome struct {
	// Pass reports that no assertion failed.
	Pass bool
	// Result and Trace are the scalar check and the trace it ran over. They
	// are set for every stimulus the scalar engine ran and for every failing
	// lane of a packed batch, whose trace is demuxed from the lane run; a
	// lane the packed check passed leaves both nil.
	Result *Result
	Trace  *sim.Trace

	lanes *LaneResult
	lane  int
}

// Attempted reports whether the named assertion logged at least one
// counted (pass or fail) attempt.
func (o Outcome) Attempted(name string) bool {
	if o.Result != nil {
		return o.Result.Attempts[name] > 0
	}
	return o.lanes.Attempted[name]>>uint(o.lane)&1 != 0
}

// Checker checks stimuli against one design's assertions on the scalar
// engine. It keeps one sim.VecRunner, binds each assertion's compiled
// evaluators to the runner's trace once, and refills one Result per
// check, so a loop over many stimuli allocates per design rather than per
// stimulus. A failing check hands its trace and Result to the caller (see
// Outcome), and the next check runs on fresh ones.
// A Checker is not safe for concurrent use.
type Checker struct {
	d    *compile.Design
	mode sim.Mode
	run  *sim.VecRunner
	b    binding
	res  *Result
}

// NewChecker returns a scalar checker for d's assertions in mode.
func NewChecker(d *compile.Design, mode sim.Mode) *Checker {
	return &Checker{d: d, mode: mode, run: sim.NewVecRunner(d, mode), res: &Result{Attempts: map[string]int{}}}
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

func checkTrace(tr *sim.Trace) (Outcome, error) {
	res, err := Check(tr)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Pass: !res.Failed(), Result: res, Trace: tr}, nil
}

// Batch is a set of stimuli checked against one checker's design. It is
// the one place that chooses between the lane engine and the scalar
// engine: a batch runs lane-packed when it holds at least two stimuli and
// sim.LanesOK accepts the design in the value domain. Otherwise — and when
// the packed run or CheckLanes fails at run time, since predication
// evaluates a superset of each lane's expressions — every stimulus runs on
// the checker, lazily, when its outcome is first asked for. Either way
// each outcome's verdict and attempted set equal a fresh checker's Check
// of that stimulus, and so do Result and Trace wherever the outcome has
// them.
type Batch struct {
	// Packed reports that a lane-packed run decided the batch.
	Packed bool

	// ctx is the context the batch was made under; the lazy scalar runs
	// use it.
	ctx   context.Context
	chk   *Checker
	stims []sim.VecStimulus
	lt    *sim.LaneTrace
	lr    *LaneResult
}

// Batch checks stims against the checker's design. Its only error is
// ctx.Err() for a cancelled packed run: a cancelled batch is not demoted
// to scalar runs that would each fail the same way. The batch holds stims
// until its last Lane call. It is returned by value, so a loop of
// one-stimulus batches allocates no more than a loop of Check calls.
func (c *Checker) Batch(ctx context.Context, stims []sim.VecStimulus) (Batch, error) {
	b := Batch{ctx: ctx, chk: c, stims: stims}
	if len(stims) < 2 || !sim.LanesOK(c.d, c.mode) {
		return b, nil
	}
	ls, err := sim.PackStimuli(stims)
	if err != nil {
		return b, nil
	}
	lt, err := sim.RunLanesCtx(ctx, c.d, ls, c.mode)
	if err != nil {
		if ctx.Err() != nil {
			return Batch{}, ctx.Err()
		}
		return b, nil
	}
	lr, err := CheckLanes(lt)
	if err != nil {
		return b, nil
	}
	b.Packed, b.lt, b.lr = true, lt, lr
	return b, nil
}

// Lane returns stimulus i's outcome. A failing lane of a packed batch is
// demuxed and checked on its own, so its Result and Trace are exactly a
// fresh checker's; on a scalar batch stimulus i simulates now, on the
// batch's checker, so a passing outcome's Trace and Result are valid until
// that checker's next check. A Batch is not safe for concurrent use.
func (b *Batch) Lane(i int) (Outcome, error) {
	if !b.Packed {
		return b.chk.Check(b.ctx, b.stims[i])
	}
	if b.lr.Failed>>uint(i)&1 == 0 {
		return Outcome{Pass: true, lanes: b.lr, lane: i}, nil
	}
	return checkTrace(b.lt.Demux(i))
}
