// Package formal is the reproduction's stand-in for the SymbiYosys formal
// verifier used in the paper. It performs bounded model checking of a
// design's SVA assertions over one stimulus schedule: every input sequence
// within the bound when the sequence space is small enough, otherwise
// directed patterns, every constant input vector of a small enough input
// space, then seeded random stimulus. It answers the two questions the
// augmentation pipeline asks of the verifier, both over that schedule:
//
//  1. does this design (with a candidate bug injected) violate any of its
//     assertions within the bound, and with what counterexample/log
//     (Check); and
//  2. does a mutated design behave differently from the golden design at
//     its outputs (Differ, which skips the exhaustive branch), used to
//     separate real functional bugs from no-ops.
//
// Both run the schedule one stimulus at a time on the compiled plan, each
// stimulus checked before the next is built: Check on one sva.Checker,
// Differ on one sim.VecRunner per design.
package formal

import (
	"context"
	"fmt"
	"iter"
	"math/rand"
	"slices"

	"repro/internal/compile"
	"repro/internal/sim"
	"repro/internal/sva"
)

// NoRandom disables the random stimulus phase entirely (RandomRuns
// sentinel): the check runs only the exhaustive, directed and constant
// strategies. A zero RandomRuns keeps the default, so turning the phase
// off needs an explicit sentinel rather than an unreachable zero value.
const NoRandom = -1

// Options configures a bounded check. It is the one option type of a
// check, from the JSON of cmd/serve's /check to internal/verify's cache key.
type Options struct {
	// Depth is the number of clock cycles per run (bound). Default 16.
	Depth int `json:"depth,omitempty"`
	// RandomRuns is the number of random stimulus runs after the directed
	// ones. Default 48; NoRandom (any negative value) disables the random
	// phase for pure-exhaustive/directed checks.
	RandomRuns int `json:"random_runs,omitempty"`
	// MaxExhaustiveBits caps full sequence enumeration: if the non-reset
	// input bits times the bound (every cycle is enumerated, reset window
	// included) is at most this, every input sequence is tried. Default
	// 16, so a single 1-bit input stays exhaustively checkable at the
	// default depth of 16. Values above 63 clamp to 63, the widest space a
	// 64-bit run counter enumerates.
	MaxExhaustiveBits int `json:"max_exhaustive_bits,omitempty"`
	// MaxConstBits caps constant-input enumeration (each run holds inputs
	// constant). Default 10; values above 63 clamp to 63.
	MaxConstBits int `json:"max_const_bits,omitempty"`
	// Seed makes the random phase deterministic. The same seed always
	// explores the same traces.
	Seed int64 `json:"seed,omitempty"`
	// FourState runs every simulation in the four-state value domain:
	// registers start x until reset or first assignment, and x propagating
	// into an assertion fails it (the not-true rule). The *stimulus* space
	// stays known-bits-only — strategies enumerate exactly the same input
	// sequences as the default two-state check, which remains the compiled
	// fast path.
	FourState bool `json:"four_state,omitempty"`
	// Deprecated: Lanes is ignored and Normalized zeroes it. Every check
	// runs its stimuli one at a time on the scalar checker; the field goes
	// when the benchmark module stops setting it (ROADMAP item 10).
	Lanes int `json:"-"`
}

// maxEnumBits is the widest space an enumeration cap admits: 1<<64 wraps
// to 0 in the uint64 run counter, which would enumerate nothing.
const maxEnumBits = 63

// Normalized returns the options with defaults applied, the canonical form
// under which two option values describe the same check (internal/verify
// keys its result cache on this).
func (o Options) Normalized() Options {
	if o.Depth <= 0 {
		o.Depth = 16
	}
	if o.RandomRuns == 0 {
		o.RandomRuns = 48
	}
	if o.RandomRuns < 0 {
		o.RandomRuns = NoRandom // disabled, not defaulted, and still so if normalized again
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
	o.MaxExhaustiveBits = min(o.MaxExhaustiveBits, maxEnumBits)
	o.MaxConstBits = min(o.MaxConstBits, maxEnumBits)
	o.Lanes = 0
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
// Cancellation is polled between simulated cycles by the sim run loop, so a
// cancelled check returns within one cycle of the caller giving up; it then
// reports ctx.Err().
func Check(ctx context.Context, d *compile.Design, opts Options) (*Result, error) {
	return check(ctx, d, opts, false)
}

// check is Check. It runs every stimulus on one sva.Checker over one
// refilled row buffer; oneShot instead checks each stimulus on a fresh
// checker and rows of its own, the form the reuse must be
// indistinguishable from.
func check(ctx context.Context, d *compile.Design, opts Options, oneShot bool) (*Result, error) {
	opts = opts.Normalized()
	mode := sim.TwoState
	if opts.FourState {
		mode = sim.FourState
	}
	chk := sva.NewChecker(d, mode)
	ds := newDriveSet(d)
	ds.reuse = !oneShot // each stimulus is checked before the next is built

	res := &Result{Pass: true}
	attempted := make([]bool, len(d.Asserts))
	for label, stim := range ds.schedule(opts, true) {
		res.Strategy = label
		if oneShot {
			chk = sva.NewChecker(d, mode)
		}
		// The run loop polls ctx between cycles, so a cancelled check
		// stops here with ctx.Err().
		o, err := chk.Check(ctx, stim)
		if err != nil {
			return nil, err
		}
		res.Runs++
		for i, a := range d.Asserts {
			if !attempted[i] && o.Attempted(a.Name) {
				attempted[i] = true
			}
		}
		if !o.Pass {
			// The first failure is the counterexample.
			res.Pass = false
			res.Failure = o.Result.FirstFailure()
			res.Trace = o.Trace
			res.Log = sva.FormatLog(d.Module.Name, o.Trace, o.Result.Failures)
			break
		}
	}
	for i, a := range d.Asserts {
		if !attempted[i] {
			res.VacuousAsserts = append(res.VacuousAsserts, a.Name)
		}
	}
	if res.Pass {
		res.Log = fmt.Sprintf("%s: all assertions passed (bound %d, %d runs, %s)\n",
			d.Module.Name, opts.Depth, res.Runs, res.Strategy)
	}
	return res, nil
}

// driveSet is the precomputed drive list for one design: the non-clock/reset
// inputs plus the reset input (when present) as the last column. Stimulus
// generators fill dense per-cycle vectors parallel to this list, the one
// scalar stimulus form, which the simulator resolves to state slots once
// per input list and writes straight into them every cycle.
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
	var clocks []*compile.Signal // one column per domain clock signal
	if d.MultiClock() {
		for _, cd := range d.Domains {
			// posedge+negedge of one signal share a column
			if sig := d.Signals[cd.Signal]; !slices.Contains(clocks, sig) {
				clocks = append(clocks, sig)
			}
		}
		ds.inputs = slices.DeleteFunc(ds.inputs, func(in *compile.Signal) bool { return slices.Contains(clocks, in) })
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
	for _, sig := range clocks {
		ds.clocks = append(ds.clocks, len(ds.all))
		ds.all = append(ds.all, sig)
	}
	return ds
}

// schedule yields the stimuli of a bounded search in order, each with the
// strategy label that a failure on it reports. With exhaustive set and a
// sequence space of at most MaxExhaustiveBits bits, it is every input
// sequence within the bound and nothing else. Otherwise it is the directed
// patterns, every constant input vector when the input space fits
// MaxConstBits, then RandomRuns seeded random stimuli. opts must be
// normalized. Unless reuse is set, each stimulus has rows of its own.
func (ds *driveSet) schedule(opts Options, exhaustive bool) iter.Seq2[string, sim.VecStimulus] {
	return func(yield func(string, sim.VecStimulus) bool) {
		depth, bits := opts.Depth, totalWidth(ds.inputs)
		if exhaustive && bits > 0 && bits*depth <= opts.MaxExhaustiveBits {
			for code := range uint64(1) << (bits * depth) {
				if !yield("exhaustive-sequences", ds.decodeSequence(code, depth)) {
					return
				}
			}
			return
		}
		label := "directed+random"
		for _, pat := range ds.directedPatterns(depth) {
			if !yield(label, ds.patternStimulus(pat, depth)) {
				return
			}
		}
		if bits > 0 && bits <= opts.MaxConstBits {
			label = "directed+const+random"
			for code := range uint64(1) << bits {
				if !yield(label, ds.constantStimulus(code, depth)) {
					return
				}
			}
		}
		rng := rand.New(rand.NewSource(opts.Seed))
		for range opts.RandomRuns {
			if !yield(label, ds.randomStimulus(rng, depth)) {
				return
			}
		}
	}
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
// c-th bit group of the code, reset cycles included: assertions without a
// disable iff sample during reset, so pinning the reset window's inputs
// would let "exhaustive" miss counterexamples inside its own bound.
func (ds *driveSet) decodeSequence(code uint64, depth int) sim.VecStimulus {
	rows := ds.stimRows(depth)
	tw := totalWidth(ds.inputs)
	for c, row := range rows {
		offset := c * tw
		for i, in := range ds.inputs {
			row[i] = (code >> uint(offset)) & in.Mask()
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
// any output within the bound. It compares them over Check's schedule
// without its exhaustive branch: directed, constant, then random stimuli,
// built one at a time, and the first difference stops the search. It is
// used to separate genuine functional bugs from behaviour-preserving
// mutations. The first differing trace is summarised in diffLog.
// Cancellation propagates from ctx exactly as in Check.
func Differ(ctx context.Context, golden, mutant *compile.Design, opts Options) (bool, string, error) {
	ds := newDriveSet(golden)
	ds.reuse = true // each stimulus is compared before the next is built
	outputs := golden.Outputs()
	runG := sim.NewVecRunner(golden, sim.TwoState)
	runM := sim.NewVecRunner(mutant, sim.TwoState)
	for _, stim := range ds.schedule(opts.Normalized(), false) {
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
	}
	return false, "", nil
}
