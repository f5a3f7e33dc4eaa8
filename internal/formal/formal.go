// Package formal is the reproduction's stand-in for the SymbiYosys formal
// verifier used in the paper. It performs bounded model checking of a
// design's SVA assertions by exhaustive input enumeration when the input
// space is small enough, falling back to directed patterns plus seeded
// random stimulus otherwise. It answers the two questions the augmentation
// pipeline asks of the verifier:
//
//  1. does this design (with a candidate bug injected) violate any of its
//     assertions within the bound, and with what counterexample/log; and
//  2. does a mutated design behave differently from the golden design at
//     its outputs (used to separate real functional bugs from no-ops).
package formal

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/compile"
	"repro/internal/sim"
	"repro/internal/sva"
)

// NoRandom disables the random stimulus phase entirely (RandomRuns
// sentinel): the check runs only the exhaustive, directed and constant
// strategies. A zero RandomRuns keeps the default, so turning the phase
// off needs an explicit sentinel rather than an unreachable zero value.
const NoRandom = -1

// Options configures a bounded check.
type Options struct {
	// Depth is the number of clock cycles per run (bound). Default 16.
	Depth int
	// RandomRuns is the number of random stimulus runs after the directed
	// ones. Default 48; NoRandom (any negative value) disables the random
	// phase for pure-exhaustive/directed checks.
	RandomRuns int
	// MaxExhaustiveBits caps full sequence enumeration: if the non-reset
	// input bits times the bound (every cycle is enumerated, reset window
	// included) is at most this, every input sequence is tried. Default
	// 16, so a single 1-bit input stays exhaustively checkable at the
	// default depth of 16.
	MaxExhaustiveBits int
	// MaxConstBits caps constant-input enumeration (each run holds inputs
	// constant). Default 10.
	MaxConstBits int
	// Seed makes the random phase deterministic. The same seed always
	// explores the same traces.
	Seed int64
	// FourState runs every simulation in the four-state value domain:
	// registers start x until reset or first assignment, and x propagating
	// into an assertion fails it (the not-true rule). The *stimulus* space
	// stays known-bits-only — strategies enumerate exactly the same input
	// sequences as the default two-state check, which remains the compiled
	// fast path.
	FourState bool
	// Lanes batches stimuli through sva.CheckBatch, up to Lanes at a time
	// (max 64), which runs them on the lane-parallel engine. Zero and one
	// both mean scalar mode — the zero value must stay a safe default, like
	// the NoRandom sentinel — and designs the lane compiler cannot lower
	// fall back to scalar runs automatically. Results are byte-identical to
	// scalar mode: failing lanes are demuxed and checked on the scalar
	// checker, and run counts and attempt bookkeeping follow the same
	// enumeration order.
	Lanes int
}

// Normalized returns the options with defaults applied, the canonical form
// under which two option values describe the same check (internal/verify
// keys its result cache on this).
func (o Options) Normalized() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.Depth <= 0 {
		o.Depth = 16
	}
	if o.RandomRuns == 0 {
		o.RandomRuns = 48
	}
	if o.RandomRuns < 0 {
		o.RandomRuns = 0 // NoRandom: the phase is disabled, not defaulted
	}
	if o.MaxExhaustiveBits <= 0 {
		// 16 = one input bit times the default depth: now that exhaustive
		// enumeration covers the reset window too (totalBits*Depth bits
		// rather than totalBits*(Depth-2)), a 14-bit cap would leave the
		// complete strategy unreachable at default options.
		o.MaxExhaustiveBits = 16
	}
	if o.MaxConstBits <= 0 {
		o.MaxConstBits = 10
	}
	if o.Lanes <= 1 {
		o.Lanes = 0 // scalar mode: 0, 1 and negatives are the same check
	}
	if o.Lanes > 64 {
		o.Lanes = 64
	}
	return o
}

// Result is the outcome of a bounded check.
type Result struct {
	// Pass is true when no assertion failed on any explored trace.
	Pass bool
	// Failure is the first failure found (nil when Pass).
	Failure *sva.Failure
	// Trace is the counterexample trace (nil when Pass).
	Trace *sim.Trace
	// Log is the verifier log: failure report plus sampled values, in the
	// same format the dataset attaches to samples.
	Log string
	// Strategy records how the state space was explored.
	Strategy string
	// Runs is the number of simulation runs executed.
	Runs int
	// VacuousAsserts lists assertions whose antecedent never matched on
	// any explored trace; the SVA generator rejects these.
	VacuousAsserts []string
}

// Check bounded-model-checks all assertions in the design under ctx.
// Cancellation is polled between stimulus submissions and, through the sim
// run loops, between simulated cycles, so a cancelled check returns within
// roughly one run of the caller giving up; it then reports ctx.Err().
func Check(ctx context.Context, d *compile.Design, opts Options) (*Result, error) {
	return check(ctx, d, opts, false)
}

// check is Check. Scalar mode normally runs every stimulus on one
// sva.Checker over one refilled row buffer; oneShot instead checks each
// stimulus with its own sva.CheckStimulus on rows of its own, the form
// the reuse must be indistinguishable from.
func check(ctx context.Context, d *compile.Design, opts Options, oneShot bool) (*Result, error) {
	opts = opts.withDefaults()
	ds := newDriveSet(d)
	inputs := ds.inputs
	totalBits := totalWidth(inputs)

	res := &Result{Pass: true}
	attempted := make([]bool, len(d.Asserts))
	done := ctx.Done()

	mode := sim.TwoState
	if opts.FourState {
		mode = sim.FourState
	}
	// Scalar mode runs every stimulus on one checker, so each stimulus is
	// checked before the next is built and the generators refill one row
	// buffer; lane batches hold their stimuli until a flush, so each keeps
	// rows of its own.
	scalar := func(stim sim.VecStimulus) (sva.Outcome, error) {
		return sva.CheckStimulus(ctx, d, stim, mode)
	}
	if opts.Lanes == 0 && !oneShot {
		chk := sva.NewChecker(d, mode)
		scalar = func(stim sim.VecStimulus) (sva.Outcome, error) { return chk.Check(ctx, stim) }
		ds.reuse = true
	}
	// take folds one stimulus' outcome into the result and reports whether
	// the check stops there: the first failure is the counterexample.
	take := func(o sva.Outcome) bool {
		res.Runs++
		for i, a := range d.Asserts {
			if !attempted[i] && o.Attempted(a.Name) {
				attempted[i] = true
			}
		}
		if o.Pass {
			return false
		}
		res.Pass = false
		res.Failure = o.Result.FirstFailure()
		res.Trace = o.Trace
		res.Log = sva.FormatLog(d.Module.Name, o.Trace, o.Result.Failures)
		return true
	}

	// Lane batching: strategies submit stimuli in enumeration order, and
	// each full batch goes through sva.CheckBatch, which packs it into one
	// lane run when the lane engine can decide the design and runs it
	// scalar otherwise. Outcomes are taken in submission order, so the stop
	// point, Runs and the failing stimulus' Failure/Trace/Log come out
	// byte-identical to a scalar check.
	var batch []sim.VecStimulus
	flush := func() (bool, error) {
		stims := batch
		batch = nil
		if len(stims) == 0 {
			return false, nil
		}
		b, err := sva.CheckBatch(ctx, d, stims, mode)
		if err != nil {
			return false, err
		}
		for i := range stims {
			o, err := b.Lane(i)
			if err != nil {
				return false, err
			}
			if take(o) {
				return true, nil
			}
		}
		return false, nil
	}

	submit := func(stim sim.VecStimulus) (bool, error) {
		// Poll between submissions too: batching mode can queue dozens of
		// stimuli without entering a run loop, and the per-cycle polls inside
		// sim only cover time spent simulating.
		select {
		case <-done:
			return false, ctx.Err()
		default:
		}
		if opts.Lanes == 0 {
			o, err := scalar(stim)
			if err != nil {
				return false, err
			}
			return take(o), nil
		}
		batch = append(batch, stim)
		if len(batch) >= opts.Lanes {
			return flush()
		}
		return false, nil
	}

	finish := func() *Result {
		for i, a := range d.Asserts {
			if !attempted[i] {
				res.VacuousAsserts = append(res.VacuousAsserts, a.Name)
			}
		}
		if res.Pass {
			res.Log = fmt.Sprintf("%s: all assertions passed (bound %d, %d runs, %s)\n",
				d.Module.Name, opts.Depth, res.Runs, res.Strategy)
		}
		return res
	}

	// Every cycle's inputs are enumerated independently — including the
	// reset window. Assertions without a disable-iff sample during reset,
	// so pinning reset-cycle inputs to the first free cycle's values (as an
	// earlier version did) made "exhaustive" miss counterexamples inside
	// its own bound; the cross-engine fuzzer's strategy-agreement oracle
	// caught directed+random finding failures exhaustive had missed.
	freeCycles := opts.Depth
	if freeCycles < 1 {
		freeCycles = 1
	}

	// Strategy 1: full sequence enumeration for tiny input spaces.
	if totalBits > 0 && totalBits*freeCycles <= opts.MaxExhaustiveBits {
		res.Strategy = "exhaustive-sequences"
		seqSpace := uint64(1) << uint(totalBits*freeCycles)
		for code := uint64(0); code < seqSpace; code++ {
			stim := ds.decodeSequence(code, opts.Depth, freeCycles)
			if stop, err := submit(stim); err != nil {
				return nil, err
			} else if stop {
				return finish(), nil
			}
		}
		if _, err := flush(); err != nil {
			return nil, err
		}
		return finish(), nil
	}

	// Strategy 2: directed patterns, constant enumeration, then random.
	res.Strategy = "directed+random"
	for _, pat := range ds.directedPatterns(opts.Depth) {
		if stop, err := submit(ds.patternStimulus(pat, opts.Depth)); err != nil {
			return nil, err
		} else if stop {
			return finish(), nil
		}
	}
	if totalBits > 0 && totalBits <= opts.MaxConstBits {
		// Drain pending directed stimuli before the strategy label changes:
		// a failure in them must report "directed+random", as scalar runs do.
		if stop, err := flush(); err != nil {
			return nil, err
		} else if stop {
			return finish(), nil
		}
		res.Strategy = "directed+const+random"
		space := uint64(1) << uint(totalBits)
		for code := uint64(0); code < space; code++ {
			stim := ds.constantStimulus(code, opts.Depth)
			if stop, err := submit(stim); err != nil {
				return nil, err
			} else if stop {
				return finish(), nil
			}
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	for i := 0; i < opts.RandomRuns; i++ {
		stim := ds.randomStimulus(rng, opts.Depth)
		if stop, err := submit(stim); err != nil {
			return nil, err
		} else if stop {
			return finish(), nil
		}
	}
	if _, err := flush(); err != nil {
		return nil, err
	}
	return finish(), nil
}

// driveSet is the precomputed drive list for one design: the non-clock/reset
// inputs plus the reset input (when present) as the last column. Stimulus
// generators fill dense per-cycle vectors parallel to this list, and
// sim.RunVecCtx writes them straight into state slots — no per-cycle maps, no
// name hashing.
//
// On a multi-clock design the domain clocks are removed from the enumerated
// inputs and driven on fixed interleaved schedules instead (clock j toggles
// with period 2^(j+1)), so every pairwise phase alignment appears within the
// bound while the enumerated stimulus space stays the data inputs only.
// Single-clock designs never gain clock columns: their clock stays implicit,
// one edge per row, exactly as before.
type driveSet struct {
	inputs []*compile.Signal // non-clk/rst inputs, declaration order
	reset  compile.ResetInfo
	all    []*compile.Signal // inputs plus reset and domain clocks (when present)
	ri     int               // reset column index in all; -1 when absent
	clocks []int             // domain-clock column indices in all (multi-clock only)

	// reuse makes every generated stimulus share the rows in buf: set when
	// each stimulus is run before the next one is built.
	reuse bool
	buf   [][]uint64
}

func newDriveSet(d *compile.Design) driveSet {
	ds := driveSet{inputs: d.Inputs(true), reset: d.Reset(), ri: -1}
	if d.MultiClock() {
		isClk := map[string]bool{}
		for _, cd := range d.Domains {
			isClk[cd.Signal] = true
		}
		kept := ds.inputs[:0]
		for _, in := range ds.inputs {
			if !isClk[in.Name] {
				kept = append(kept, in)
			}
		}
		ds.inputs = kept
		ds.all = append(ds.all, ds.inputs...)
		if ds.reset.Present {
			if sig := d.Signals[ds.reset.Name]; sig != nil {
				ds.ri = len(ds.all)
				ds.all = append(ds.all, sig)
			} else {
				ds.reset = compile.ResetInfo{}
			}
		}
		seen := map[string]bool{}
		for _, cd := range d.Domains {
			if seen[cd.Signal] {
				continue // posedge+negedge of one signal share a column
			}
			seen[cd.Signal] = true
			ds.clocks = append(ds.clocks, len(ds.all))
			ds.all = append(ds.all, d.Signals[cd.Signal])
		}
		return ds
	}
	ds.all = append(ds.all, ds.inputs...)
	if ds.reset.Present {
		if sig := d.Signals[ds.reset.Name]; sig != nil {
			ds.ri = len(ds.all)
			ds.all = append(ds.all, sig)
		} else {
			ds.reset = compile.ResetInfo{}
		}
	}
	return ds
}

// stimRows returns depth stimulus rows with the reset column filled
// (active for the first two cycles, inactive afterwards) and, on
// multi-clock designs, the domain-clock columns on their interleaved
// schedules; the generators fill the input columns. With reuse set the
// rows are the one shared buffer, otherwise fresh rows cut from one slab.
func (ds *driveSet) stimRows(depth int) [][]uint64 {
	rows := ds.buf
	if !ds.reuse || len(rows) != depth {
		w := len(ds.all)
		slab := make([]uint64, depth*w)
		rows = make([][]uint64, depth)
		for c := range rows {
			rows[c] = slab[c*w : (c+1)*w : (c+1)*w]
		}
		if ds.reuse {
			ds.buf = rows
		}
	}
	for c, row := range rows {
		clear(row)
		if ds.ri >= 0 {
			active := c < 2
			v := uint64(0)
			if ds.reset.ActiveLow != active {
				// active-low & inactive -> 1; active-high & active -> 1
				v = 1
			}
			row[ds.ri] = v
		}
		for j, col := range ds.clocks {
			row[col] = uint64(c) >> uint(j) & 1
		}
	}
	return rows
}

// decodeSequence expands an integer code into a full per-cycle stimulus for
// exhaustive sequence enumeration. Cycle c draws its input bits from the
// c-th bit group of the code, reset cycles included.
func (ds *driveSet) decodeSequence(code uint64, depth, freeCycles int) sim.VecStimulus {
	rows := ds.stimRows(depth)
	tw := totalWidth(ds.inputs)
	for c, row := range rows {
		free := c
		if free >= freeCycles {
			free = freeCycles - 1
		}
		offset := 0
		for i, in := range ds.inputs {
			shift := uint(free*tw + offset)
			row[i] = (code >> shift) & in.Mask()
			offset += in.Width
		}
	}
	return sim.VecStimulus{Inputs: ds.all, Rows: rows}
}

func totalWidth(inputs []*compile.Signal) int {
	w := 0
	for _, in := range inputs {
		w += in.Width
	}
	return w
}

func (ds *driveSet) constantStimulus(code uint64, depth int) sim.VecStimulus {
	rows := ds.stimRows(depth)
	for _, row := range rows {
		offset := 0
		for i, in := range ds.inputs {
			row[i] = (code >> uint(offset)) & in.Mask()
			offset += in.Width
		}
	}
	return sim.VecStimulus{Inputs: ds.all, Rows: rows}
}

// pattern gives an input's value at a cycle; patternStimulus masks it to
// the input's width.
type pattern func(in *compile.Signal, cycle int) uint64

// directedPatterns returns the canonical corner-case patterns: all zeros,
// all ones, per-input walking ones, a ramp, and alternating phases.
func (ds *driveSet) directedPatterns(depth int) []pattern {
	inputs := ds.inputs
	out := []pattern{
		func(*compile.Signal, int) uint64 { return 0 },
		func(in *compile.Signal, _ int) uint64 { return in.Mask() },
		func(_ *compile.Signal, c int) uint64 { return uint64(c) },
		func(_ *compile.Signal, c int) uint64 {
			if c%2 == 0 {
				return 0
			}
			return ^uint64(0)
		},
		func(in *compile.Signal, _ int) uint64 { return 1 },
	}
	// Walking one: each input raised alone, others zero, for a few phases.
	for i := range inputs {
		out = append(out, func(in *compile.Signal, c int) uint64 {
			if in.Name == inputs[i].Name {
				return uint64(1) << uint(c%max(in.Width, 1))
			}
			return 0
		})
	}
	// One-hot per cycle across inputs (pulse each input in turn).
	out = append(out, func(in *compile.Signal, c int) uint64 {
		for j, cand := range inputs {
			if cand.Name == in.Name && c%max(len(inputs), 1) == j {
				return cand.Mask()
			}
		}
		return 0
	})
	// Idle-then-burst and burst-then-idle: catch timeout/watchdog logic
	// whose interesting transition needs a long quiet phase first.
	out = append(out,
		func(in *compile.Signal, c int) uint64 {
			if c < depth/2 {
				return 0
			}
			return in.Mask()
		},
		func(in *compile.Signal, c int) uint64 {
			if c < depth/2 {
				return in.Mask()
			}
			return 0
		},
		// Long idle with a single late pulse on every input.
		func(in *compile.Signal, c int) uint64 {
			if c == depth-3 {
				return in.Mask()
			}
			return 0
		},
	)
	return out
}

// patternStimulus builds the stimulus that drives every input by pat.
func (ds *driveSet) patternStimulus(pat pattern, depth int) sim.VecStimulus {
	rows := ds.stimRows(depth)
	for c, row := range rows {
		for i, in := range ds.inputs {
			row[i] = pat(in, c) & in.Mask()
		}
	}
	return sim.VecStimulus{Inputs: ds.all, Rows: rows}
}

func (ds *driveSet) randomStimulus(rng *rand.Rand, depth int) sim.VecStimulus {
	rows := ds.stimRows(depth)
	for _, row := range rows {
		for i, in := range ds.inputs {
			switch rng.Intn(4) {
			case 0:
				row[i] = 0
			case 1:
				row[i] = in.Mask()
			default:
				row[i] = rng.Uint64() & in.Mask()
			}
		}
	}
	return sim.VecStimulus{Inputs: ds.all, Rows: rows}
}

// Differ reports whether two designs with identical interfaces diverge on
// any output within the bound, using the same exploration strategies. It is
// used to separate genuine functional bugs from behaviour-preserving
// mutations. The first differing trace is summarised in diffLog.
// Cancellation propagates from ctx exactly as in Check.
func Differ(ctx context.Context, golden, mutant *compile.Design, opts Options) (bool, string, error) {
	opts = opts.withDefaults()
	ds := newDriveSet(golden)
	ds.reuse = true // each stimulus is compared before the next is built
	outputs := golden.Outputs()
	runG := sim.NewVecRunner(golden, sim.TwoState)
	runM := sim.NewVecRunner(mutant, sim.TwoState)

	compareOn := func(stim sim.VecStimulus) (bool, string, error) {
		trG, err := runG.Run(ctx, stim)
		if err != nil {
			return false, "", err
		}
		trM, err := runM.Run(ctx, stim)
		if err != nil {
			if ctx.Err() != nil {
				// Cancellation mid-run, not a broken mutant.
				return false, "", ctx.Err()
			}
			// A mutant that cannot simulate (e.g. combinational loop) is
			// behaviourally different by definition.
			return true, fmt.Sprintf("mutant simulation error: %v", err), nil
		}
		for c := 0; c < trG.Len() && c < trM.Len(); c++ {
			for _, out := range outputs {
				g, _ := trG.Value(c, out.Name)
				m, _ := trM.Value(c, out.Name)
				if g != m {
					return true, fmt.Sprintf("output %s differs at cycle %d: golden=%d mutant=%d", out.Name, c, g, m), nil
				}
			}
		}
		return false, "", nil
	}

	// Stimuli are built one at a time, in the order directed, constant,
	// random, and the first difference stops the search.
	for _, pat := range ds.directedPatterns(opts.Depth) {
		if diff, log, err := compareOn(ds.patternStimulus(pat, opts.Depth)); diff || err != nil {
			return diff, log, err
		}
	}
	totalBits := totalWidth(ds.inputs)
	if totalBits > 0 && totalBits <= opts.MaxConstBits {
		space := uint64(1) << uint(totalBits)
		for code := uint64(0); code < space; code++ {
			if diff, log, err := compareOn(ds.constantStimulus(code, opts.Depth)); diff || err != nil {
				return diff, log, err
			}
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	for i := 0; i < opts.RandomRuns; i++ {
		if diff, log, err := compareOn(ds.randomStimulus(rng, opts.Depth)); diff || err != nil {
			return diff, log, err
		}
	}
	return false, "", nil
}
