package sim

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/compile"
)

// This file holds the one simulation run loop and the four entry points
// that reach it. Every engine — the compiled plan in either value domain,
// the reference interpreter and the lane engine in either value domain —
// advances a run through drive, which owns the per-cycle sequence; an
// engine supplies only its step set. Each step is one call per cycle, so
// the settle and edge loops behind it stay monomorphic.

// stepper is one engine's per-cycle step set.
type stepper interface {
	// capture samples the committed domain clocks (multi-clock runs only).
	capture()
	// apply drives row c's inputs.
	apply(c int) error
	settle() error
	// sample records the settled state as the preponed sample of cycle
	// c, plus the fired mask of the coming edge.
	sample(c int)
	edge() error
}

// drive runs rows cycles of e: each cycle captures the domain clocks,
// applies the row's inputs, settles, samples, and runs the edge. It polls
// ctx between cycles and returns ctx.Err() once it is cancelled, so a
// caller-side deadline or disconnect stops a long run within one cycle.
func drive(ctx context.Context, e stepper, rows int) error {
	done := ctx.Done()
	for c := 0; c < rows; c++ {
		if stopped(done) {
			return ctx.Err()
		}
		e.capture()
		if err := e.apply(c); err != nil {
			return fmt.Errorf("cycle %d: %w", c, err)
		}
		if err := e.settle(); err != nil {
			return fmt.Errorf("cycle %d: %w", c, err)
		}
		e.sample(c)
		if err := e.edge(); err != nil {
			return fmt.Errorf("cycle %d: %w", c, err)
		}
	}
	return nil
}

// stopped polls a context's done channel between simulated cycles. The
// channel is hoisted out of the run loop so an uncancellable context
// (Background's Done is nil) costs one nil check per cycle — the formal
// checker's hot loops must not pay for cancellation they never use.
func stopped(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// RunVecCtx simulates the design over the stimulus in the given value
// domain and returns the sampled trace. Simulation executes on the design's
// compiled plan (in FourState mode its four-state lowering, with every
// signal starting x except declared initials). It is the one-shot use of a
// VecRunner, so the trace belongs to the caller.
func RunVecCtx(ctx context.Context, d *compile.Design, stim VecStimulus, mode Mode) (*Trace, error) {
	return NewVecRunner(d, mode).Run(ctx, stim)
}

// VecRunner is the scalar engine's reusable run state for one design in
// one value domain, the bounded model checker's hot path. The plan
// machine, the step set and the trace, with its one row slab per value
// plane, are reset between runs instead of reallocated, so a caller
// looping over many stimuli allocates per design rather than per stimulus.
//
// The trace Run returns is the runner's own and the next Run overwrites it,
// unless Detach hands it to the caller first. A design with no lowering in
// the runner's value domain, which internal/compile never produces, fails
// every run with the error its lowering stopped at. A VecRunner is not
// safe for concurrent use.
type VecRunner struct {
	d      *compile.Design
	mode   Mode
	p      *Plan
	err    error // why the design has no lowering in mode; p is nil
	r      planRun
	inputs []*compile.Signal // the input list r.slots was resolved from
}

// NewVecRunner returns run state for simulating d in mode.
func NewVecRunner(d *compile.Design, mode Mode) *VecRunner {
	v := &VecRunner{d: d, mode: mode}
	p, err := planOf(d)
	if err == nil && p.lowering(mode) == nil {
		_, err = buildPlan4(p) // rebuilt for its error, off every path compile lets a design reach
	}
	if err != nil {
		v.err = fmt.Errorf("sim: design has no %v execution plan: %w", mode, err)
	} else {
		v.p = p
	}
	return v
}

// Run simulates one stimulus, driving every input in stim.Inputs every
// cycle, and returns its trace. A row that does not hold one value per
// input, or a column that is not an input of the design, is an error
// before the first cycle, as on the reference interpreter.
func (v *VecRunner) Run(ctx context.Context, stim VecStimulus) (*Trace, error) {
	if v.err != nil {
		return nil, v.err
	}
	if err := stim.checkShape(); err != nil {
		return nil, err
	}
	if v.r.slots == nil || !slices.Equal(v.inputs, stim.Inputs) {
		slots, err := inputSlots(v.d, stim.Inputs)
		if err != nil {
			return nil, err
		}
		v.r.slots, v.inputs = slots, append(v.inputs[:0], stim.Inputs...)
	}
	v.r.rows = stim.Rows
	return v.r.run(ctx, v.d, v.p, v.mode, len(stim.Rows))
}

// Detach hands the trace of the last Run to the caller for good: the next
// Run records into a trace of its own.
func (v *VecRunner) Detach() { v.r.tr = nil }

// RunReferenceCtx simulates the design on the reference interpreter in the
// given value domain. It is the semantic oracle the differential tests and
// internal/fuzz hold the compiled plan against; no production path runs
// it. Its trace evaluates expressions on the interpreter too
// (Trace.CompileExpr4), so the interpretive evaluator is reachable only
// from here and RunReferenceBranches.
func RunReferenceCtx(ctx context.Context, d *compile.Design, stim VecStimulus, mode Mode) (*Trace, error) {
	r, err := newRefRun(d, stim, mode)
	if err != nil {
		return nil, err
	}
	return r.run(ctx)
}

// RunReferenceBranches is RunReferenceCtx with branch recording enabled,
// returning the sampled trace and the if-statement polarity coverage of
// the whole run. It is the dynamic half of the lint-vs-sim dead-branch
// contract: a branch the analyzer proved dead must have its polarity bit
// clear in the returned coverage.
func RunReferenceBranches(d *compile.Design, stim VecStimulus, mode Mode) (*Trace, BranchCoverage, error) {
	r, err := newRefRun(d, stim, mode)
	if err != nil {
		return nil, nil, err
	}
	r.s.recordBranches()
	tr, err := r.run(context.Background())
	if err != nil {
		return nil, nil, err
	}
	return tr, r.s.branches, nil
}

// RunLanesCtx simulates a lane batch in the given value domain. Any
// execution error (unsettled logic, failing sampled-value call in any lane
// — lane mode evaluates a superset of each lane's scalar expressions under
// predication) aborts the whole batch; callers re-run the lanes one by one
// on the scalar engine, which reproduces scalar behaviour exactly. A
// cancelled batch returns ctx.Err().
func RunLanesCtx(ctx context.Context, d *compile.Design, ls *LaneStimulus, mode Mode) (*LaneTrace, error) {
	if err := ls.checkShape(); err != nil {
		return nil, err
	}
	p := PlanOf(d)
	if p == nil {
		return nil, fmt.Errorf("sim: design has no execution plan (lane mode unavailable)")
	}
	lp := p.lanes(mode)
	if lp == nil {
		return nil, fmt.Errorf("sim: design has no %v lane plan (lane mode unavailable)", mode)
	}
	lt := &LaneTrace{Design: d, plan: p, lp: lp, n: ls.N, rows: make([]laneRow, 0, ls.Depth)}
	r := &laneRun{m: newLmach(lp), ls: ls, lt: lt, ck: clocksOf(d)}
	var err error
	if r.slots, err = inputSlots(d, ls.Inputs); err != nil {
		return nil, err
	}
	if err := r.settle(); err != nil {
		return nil, err
	}
	if err := drive(ctx, r, ls.Depth); err != nil {
		return nil, err
	}
	return lt, nil
}

// inputSlots resolves a driven input list to state slots once per run. A
// nil entry, which is what d.Signals yields for a misspelt name, is an
// error.
func inputSlots(d *compile.Design, inputs []*compile.Signal) ([]int32, error) {
	slots := make([]int32, len(inputs))
	for i, in := range inputs {
		if in == nil {
			return nil, fmt.Errorf("sim: stimulus input %d is nil", i)
		}
		sig := d.Signals[in.Name]
		if sig == nil || sig.Kind != compile.SigInput {
			return nil, fmt.Errorf("sim: %q is not an input", in.Name)
		}
		slots[i] = int32(sig.Slot)
	}
	return slots, nil
}

// record copies cycle c's sampled planes into row c (unk is nil in
// two-state runs) and returns the fired mask of the coming edge.
func (t *Trace) record(c int, vals, unk []uint64, ck *clocks) uint64 {
	copy(t.rows[c], vals)
	if unk != nil {
		copy(t.unks[c], unk)
	}
	if ck == nil {
		return firedAll
	}
	var f uint64 // bit k: domain k's one-lane fired word
	for k, w := range ck.fire(vals, unk) {
		f |= (w & 1) << uint(k)
	}
	t.fired = append(t.fired, f)
	return f
}

// planRun is the compiled plan's step set, in either value domain: row c
// drives slots[i] from rows[c][i]. The machine is held by value so a run
// allocates one step set, not a step set plus a machine, and a planRun
// that runs again resets its machine and trace in place.
type planRun struct {
	m     mach
	tr    *Trace
	ck    *clocks
	fired uint64
	slots []int32
	rows  [][]uint64
}

// run simulates rows cycles of the loaded stimulus, reusing the trace,
// the clock tracker and the machine of r's previous run, if any.
func (r *planRun) run(ctx context.Context, d *compile.Design, p *Plan, mode Mode, rows int) (*Trace, error) {
	if r.tr == nil {
		r.tr = &Trace{Design: d, plan: p}
	}
	if r.ck == nil {
		r.ck = clocksOf(d)
	}
	r.tr.reset(p.nslots, rows, mode)
	r.m.setup(p, mode)
	if err := r.settle(); err != nil {
		return nil, err
	}
	if err := drive(ctx, r, rows); err != nil {
		return nil, err
	}
	return r.tr, nil
}

func (r *planRun) capture() {
	if r.ck != nil {
		r.ck.capture(r.m.vals, r.m.unks)
	}
}

func (r *planRun) apply(c int) error {
	row := r.rows[c]
	for i, slot := range r.slots {
		r.m.setSlot(slot, row[i])
	}
	return nil
}

func (r *planRun) settle() error { return r.m.settle() }

func (r *planRun) sample(c int) {
	r.fired = r.tr.record(c, r.m.vals, r.m.unks, r.ck)
}

func (r *planRun) edge() error { return r.m.edge(r.fired) }

// refRun is the reference interpreter's step set. Its state is name-keyed,
// so the clock tracker and the trace read dense slot snapshots of it,
// taken into one pair of scratch planes per run.
type refRun struct {
	s          *Simulator
	slots      []int32
	rows       [][]uint64
	tr         *Trace
	ck         *clocks
	fired      uint64
	vals, unks []uint64 // snapshot planes; unks nil in two-state runs
}

// newRefRun checks stim's shape and columns against d, as the plan does,
// and starts a reference interpreter for it in mode.
func newRefRun(d *compile.Design, stim VecStimulus, mode Mode) (*refRun, error) {
	if err := stim.checkShape(); err != nil {
		return nil, err
	}
	slots, err := inputSlots(d, stim.Inputs)
	if err != nil {
		return nil, err
	}
	s, err := newSimulator(d, mode)
	if err != nil {
		return nil, err
	}
	r := &refRun{s: s, slots: slots, rows: stim.Rows, tr: &Trace{Design: d, interp: interpretExpr}, ck: clocksOf(d)}
	r.tr.reset(d.SlotCount(), len(stim.Rows), mode)
	r.vals = make([]uint64, d.SlotCount())
	if mode == FourState {
		r.unks = make([]uint64, d.SlotCount())
	}
	return r, nil
}

func (r *refRun) run(ctx context.Context) (*Trace, error) {
	if err := drive(ctx, r, len(r.rows)); err != nil {
		return nil, err
	}
	return r.tr, nil
}

func (r *refRun) capture() {
	if r.ck != nil {
		r.s.snapshot(r.vals, r.unks)
		r.ck.capture(r.vals, r.unks)
	}
}

// apply drives every input fully known, masked to its width.
func (r *refRun) apply(c int) error {
	d, row := r.s.design, r.rows[c]
	for i, slot := range r.slots {
		sig := d.Signals[d.Order[slot]]
		r.s.setVal(sig.Name, known(row[i]&sig.Mask()))
	}
	return nil
}

func (r *refRun) settle() error { return r.s.settle() }

func (r *refRun) sample(c int) {
	r.s.snapshot(r.vals, r.unks)
	r.fired = r.tr.record(c, r.vals, r.unks, r.ck)
}

func (r *refRun) edge() error { return r.s.edge(r.fired) }

// laneRun is the lane engine's step set, in either value domain.
type laneRun struct {
	m     *lmach
	ls    *LaneStimulus
	slots []int32
	lt    *LaneTrace
	ck    *clocks
	fired []uint64 // per-domain fired lane masks; nil for single-domain batches
}

func (r *laneRun) capture() {
	if r.ck != nil {
		r.ck.capture(r.m.bits, r.m.ubits)
	}
}

// apply drives row c into every lane; lanes >= N replicate lane N-1 so
// word kernels never see garbage.
func (r *laneRun) apply(c int) error {
	ls, m := r.ls, r.m
	for i, slot := range r.slots {
		if m.lp.isBit[slot] {
			m.bits[slot] = replicateLanes(ls.Bits[c][i], ls.N)
			if m.ubits != nil {
				m.ubits[slot] = 0
			}
			continue
		}
		dst := m.wide[slot]
		copy(dst, ls.Wide[c][i])
		for l := ls.N; l < 64; l++ {
			dst[l] = dst[ls.N-1]
		}
		if m.uwide != nil {
			clear(m.uwide[slot])
		}
	}
	return nil
}

func (r *laneRun) settle() error { return r.m.settleLanes() }

func (r *laneRun) sample(int) {
	m := r.m
	r.lt.rows = append(r.lt.rows, snapshotLaneRow(m.laneRow))
	if r.ck != nil {
		r.fired = r.ck.fire(m.bits, m.ubits)
		r.lt.fired = append(r.lt.fired, slices.Clone(r.fired))
	}
}

func (r *laneRun) edge() error { return r.m.edgeLanes(r.fired) }
