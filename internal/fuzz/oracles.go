package fuzz

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/compile"
	"repro/internal/formal"
	"repro/internal/sim"
	"repro/internal/sva"
	"repro/internal/verilog"
)

// Violation is one oracle failure: a program on which the toolchain
// disagrees with itself.
type Violation struct {
	// Oracle names the property that failed: "round-trip",
	// "engine-equivalence", "formal-consistency" or "lint".
	Oracle string
	// Class is the failure kind within the oracle (e.g. "ast-diff",
	// "trace", "replay-miss"); the minimizer shrinks while preserving
	// Oracle and Class so it cannot drift onto an unrelated failure.
	Class string
	// Detail describes the disagreement.
	Detail string
	// Src is the program text that triggered it.
	Src string
}

// Error implements the error interface.
func (v *Violation) Error() string {
	return fmt.Sprintf("%s violation (%s): %s\nprogram:\n%s", v.Oracle, v.Class, v.Detail, v.Src)
}

func violation(oracle, class, src, format string, args ...any) *Violation {
	return &Violation{Oracle: oracle, Class: class, Detail: fmt.Sprintf(format, args...), Src: src}
}

// ---------------------------------------------------------------------------
// Oracle 1: round-trip
// ---------------------------------------------------------------------------

// RoundTrip checks print/parse coherence for a module tree: the printed
// text must parse, the parse must be structurally equal to the original
// (deep compare ignoring positions), and re-printing must reproduce the
// text byte for byte.
func RoundTrip(m *verilog.Module) error {
	src := verilog.Print(m)
	back, err := verilog.Parse(src)
	if err != nil {
		return violation("round-trip", "parse", src, "printed module does not parse: %v", err)
	}
	if !EqualModule(m, back) {
		return violation("round-trip", "ast-diff", src, "reparsed AST differs from the original: %s", firstDiff(m, back))
	}
	if again := verilog.Print(back); again != src {
		return violation("round-trip", "fixpoint", src, "print is not a parser fixpoint; second print:\n%s", again)
	}
	return nil
}

// RoundTripSet is RoundTrip for a multi-module source set: the printed set
// must parse back to the same modules in the same order, and re-printing
// must reproduce the text byte for byte.
func RoundTripSet(set *verilog.SourceSet) error {
	src := verilog.PrintSet(set)
	back, err := verilog.ParseSet(src)
	if err != nil {
		return violation("round-trip", "parse", src, "printed set does not parse: %v", err)
	}
	if len(back.Modules) != len(set.Modules) {
		return violation("round-trip", "ast-diff", src,
			"reparsed set has %d modules, original %d", len(back.Modules), len(set.Modules))
	}
	for i := range set.Modules {
		if !EqualModule(set.Modules[i], back.Modules[i]) {
			return violation("round-trip", "ast-diff", src,
				"module %s: reparsed AST differs from the original: %s",
				set.Modules[i].Name, firstDiff(set.Modules[i], back.Modules[i]))
		}
	}
	if again := verilog.PrintSet(back); again != src {
		return violation("round-trip", "fixpoint", src, "print is not a parser fixpoint; second print:\n%s", again)
	}
	return nil
}

// RoundTripSource is RoundTrip for source text: the text is parsed first
// and the resulting tree must round-trip. Multi-module sources are checked
// as a set; for a single module this is exactly RoundTrip. Used for the
// committed regression corpus, whose entries are stored as .v files.
func RoundTripSource(src string) error {
	set, err := verilog.ParseSet(src)
	if err != nil {
		return violation("round-trip", "parse", src, "corpus program does not parse: %v", err)
	}
	return RoundTripSet(set)
}

// ---------------------------------------------------------------------------
// Oracle 2: engine equivalence
// ---------------------------------------------------------------------------

// EngineEquivalence simulates the program on the compiled slot-indexed plan
// (sim.RunVecCtx) and the reference interpreter (sim.RunReferenceCtx) under
// the same random stimulus and requires the same run error text (or none),
// byte-identical traces, identical SVA verdicts and identical failure logs —
// first in the two-state domain, then in the four-state domain, where both
// value planes (Val and Unk) are compared on every trace row. Programs that
// do not compile are out of scope and pass vacuously; one that compiles
// must first have a plan in both value domains.
func EngineEquivalence(src string, seed int64) error {
	d1, diags, err := compile.Compile(src)
	if err != nil || compile.HasErrors(diags) || d1 == nil {
		return nil
	}
	d2, _, _ := compile.Compile(src)

	// A zero-row run only sets the plan's machine up and settles it, so it
	// fails as the reference interpreter's does unless compile let through
	// a design the planner cannot lower in that value domain.
	for _, mode := range []sim.Mode{sim.TwoState, sim.FourState} {
		_, errPlan := sim.RunVecCtx(context.Background(), d1, sim.VecStimulus{}, mode)
		_, errRef := sim.RunReferenceCtx(context.Background(), d2, sim.VecStimulus{}, mode)
		if !sameError(errPlan, errRef) {
			return violation("engine-equivalence", "unplanned", src,
				"compiles but does not run on the %v plan: plan err=%v, reference err=%v", mode, errPlan, errRef)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	depth := 6 + rng.Intn(12)
	vec := randomStimulus(d1, rng, depth)

	tr1, err1 := sim.RunVecCtx(context.Background(), d1, vec, sim.TwoState)
	tr2, err2 := sim.RunReferenceCtx(context.Background(), d2, vec, sim.TwoState)
	if !sameError(err1, err2) {
		return violation("engine-equivalence", "sim-error", src, "plan err=%v, reference err=%v", err1, err2)
	}
	if err1 == nil {
		if v := compareTraces(src, d1, tr1, tr2, ""); v != nil {
			return v
		}
	}

	// Four-state pass: same stimulus over x-initialised state.
	tr3, err3 := sim.RunVecCtx(context.Background(), d1, vec, sim.FourState)
	tr4, err4 := sim.RunReferenceCtx(context.Background(), d2, vec, sim.FourState)
	if !sameError(err3, err4) {
		return violation("engine-equivalence", "sim-error-4state", src, "plan err=%v, reference err=%v", err3, err4)
	}
	if err3 == nil {
		if v := compareTraces(src, d1, tr3, tr4, "-4state"); v != nil {
			return v
		}
	}

	// Third engine: a ragged lane batch — the same stimulus plus random
	// siblings — with every lane demuxed and held to its own scalar run.
	if v := laneEquivalence(src, d1, vec, rng, sim.TwoState, "-lane"); v != nil {
		return v
	}
	return laneEquivalence(src, d1, vec, rng, sim.FourState, "-lane-4state")
}

// sameError reports whether two engines' run errors agree: both nil, or
// both failing with the same text, which a verdict's log carries.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// laneEquivalence packs vec with freshly generated sibling stimuli into one
// lane batch, runs it through the lane engine, and compares every demuxed
// lane (trace, SVA verdicts, logs) against a scalar plan run of the same
// stimulus. It also holds the batched SVA checker to the per-lane scalar
// verdicts. A lane-engine error is the documented fallback path (predicated
// execution evaluates a superset of each lane's expressions) and passes
// vacuously — but a lane success paired with any scalar error, or any
// mismatch after demux, is a violation.
func laneEquivalence(src string, d *compile.Design, vec sim.VecStimulus, rng *rand.Rand, mode sim.Mode, suffix string) error {
	stims := []sim.VecStimulus{vec}
	for extra := rng.Intn(7); extra > 0; extra-- {
		sib := randomStimulus(d, rng, len(vec.Rows))
		stims = append(stims, sib)
	}
	ls, err := sim.PackStimuli(stims)
	if err != nil {
		return violation("engine-equivalence", "lane-pack"+suffix, src, "pack: %v", err)
	}
	lt, laneErr := sim.RunLanesCtx(context.Background(), d, ls, mode)
	if laneErr != nil {
		return nil // fallback contract: callers rerun lanes on the scalar engine
	}
	var wantFailed uint64
	wantAttempted := map[string]uint64{}
	svaOK := true
	for l := range stims {
		tr, err := sim.RunVecCtx(context.Background(), d, stims[l], mode)
		if err != nil {
			return violation("engine-equivalence", "lane-sim-error"+suffix, src,
				"lane batch passed but lane %d errs on the scalar engine: %v", l, err)
		}
		if v := compareTraces(src, d, lt.Demux(l), tr, suffix); v != nil {
			return v
		}
		res, err := sva.Check(tr)
		if err != nil {
			svaOK = false
			continue
		}
		if res.Failed() {
			wantFailed |= 1 << uint(l)
		}
		for name := range res.Attempts {
			wantAttempted[name] |= 1 << uint(l)
		}
	}
	lres, err := sva.CheckLanes(lt)
	if err != nil || !svaOK {
		return nil // batched checking falls back per lane
	}
	if lres.Failed != wantFailed {
		return violation("engine-equivalence", "lane-sva-mask"+suffix, src,
			"CheckLanes failed mask %#x, per-lane scalar %#x", lres.Failed, wantFailed)
	}
	for name, w := range wantAttempted {
		if lres.Attempted[name] != w {
			return violation("engine-equivalence", "lane-sva-mask"+suffix, src,
				"CheckLanes attempted[%s]=%#x, per-lane scalar %#x", name, lres.Attempted[name], w)
		}
	}
	if len(lres.Attempted) != len(wantAttempted) {
		return violation("engine-equivalence", "lane-sva-mask"+suffix, src,
			"CheckLanes attempted set %v, per-lane scalar %v", lres.Attempted, wantAttempted)
	}
	return nil
}

// compareTraces holds a plan trace and a reference trace to bitwise
// equality — both value planes on every row — then compares SVA verdicts
// and formatted failure logs. suffix tags the violation class with the
// value domain.
func compareTraces(src string, d *compile.Design, tr1, tr2 *sim.Trace, suffix string) error {
	if tr1.Len() != tr2.Len() {
		return violation("engine-equivalence", "trace-len"+suffix, src, "trace length %d vs %d", tr1.Len(), tr2.Len())
	}
	for c := 0; c < tr1.Len(); c++ {
		for _, name := range d.Order {
			a, _ := tr1.Value4(c, name)
			b, _ := tr2.Value4(c, name)
			if a != b {
				return violation("engine-equivalence", "trace"+suffix, src,
					"cycle %d signal %s: plan=%#x/unk %#x reference=%#x/unk %#x", c, name, a.Val, a.Unk, b.Val, b.Unk)
			}
		}
	}

	res1, errS1 := sva.Check(tr1)
	res2, errS2 := sva.Check(tr2)
	if (errS1 == nil) != (errS2 == nil) {
		return violation("engine-equivalence", "sva-error"+suffix, src, "sva: plan err=%v, reference err=%v", errS1, errS2)
	}
	if errS1 != nil {
		return nil
	}
	if msg := diffSVAResults(res1, res2); msg != "" {
		return violation("engine-equivalence", "sva"+suffix, src, "sva verdicts differ: %s", msg)
	}
	log1 := sva.FormatLog(d.Module.Name, tr1, res1.Failures)
	log2 := sva.FormatLog(d.Module.Name, tr2, res2.Failures)
	if log1 != log2 {
		return violation("engine-equivalence", "log"+suffix, src, "failure logs differ:\n--- plan ---\n%s--- reference ---\n%s", log1, log2)
	}
	return nil
}

// randomStimulus builds one random run over every input port. When the
// design has a reset it is held active for the first two cycles, released,
// and occasionally glitched later.
func randomStimulus(d *compile.Design, rng *rand.Rand, depth int) sim.VecStimulus {
	inputs := inputPorts(d)
	reset := d.Reset()
	rows := make([][]uint64, depth)
	for c := 0; c < depth; c++ {
		row := make([]uint64, len(inputs))
		for i, in := range inputs {
			v := rng.Uint64() & in.Mask()
			if reset.Present && in.Name == reset.Name {
				active := c < 2 || rng.Intn(8) == 0
				if reset.ActiveLow == active {
					v = 0
				} else {
					v = 1
				}
			}
			row[i] = v
		}
		rows[c] = row
	}
	return sim.VecStimulus{Inputs: inputs, Rows: rows}
}

// inputPorts lists the design's input ports in declaration order.
func inputPorts(d *compile.Design) []*compile.Signal {
	var inputs []*compile.Signal
	for _, p := range d.Module.Ports {
		if p.Dir == verilog.DirInput {
			inputs = append(inputs, d.Signals[p.Name])
		}
	}
	return inputs
}

func diffSVAResults(a, b *sva.Result) string {
	if len(a.Failures) != len(b.Failures) {
		return fmt.Sprintf("%d vs %d failures", len(a.Failures), len(b.Failures))
	}
	for i := range a.Failures {
		fa, fb := a.Failures[i], b.Failures[i]
		if fa.Assert.Name != fb.Assert.Name || fa.StartCycle != fb.StartCycle ||
			fa.FailCycle != fb.FailCycle || fa.Unknown != fb.Unknown ||
			verilog.ExprString(fa.Term) != verilog.ExprString(fb.Term) {
			return fmt.Sprintf("failure %d: %s vs %s", i, fa, fb)
		}
	}
	if len(a.Attempts) != len(b.Attempts) {
		return fmt.Sprintf("%d vs %d asserts with attempts", len(a.Attempts), len(b.Attempts))
	}
	for name, n := range a.Attempts {
		if b.Attempts[name] != n {
			return fmt.Sprintf("attempts for %s: %d vs %d", name, n, b.Attempts[name])
		}
	}
	return ""
}

// ---------------------------------------------------------------------------
// Oracle 3: formal consistency
// ---------------------------------------------------------------------------

// formalOpts is the bounded-check configuration the fuzzer uses: deep
// enough for the generated properties, small enough that exhaustive
// enumeration stays cheap.
func formalOpts(seed int64) formal.Options {
	return formal.Options{Seed: seed, Depth: 8, RandomRuns: 6, MaxExhaustiveBits: 12, MaxConstBits: 6}
}

// FormalConsistency cross-checks the bounded model checker against the
// simulator: a counterexample must replay as a failure of the named
// assertion at the same cycle on the reference interpreter, and a Pass
// from the complete exhaustive-sequences strategy must not be contradicted
// by any other strategy at the same bound. Programs that do not compile
// pass vacuously.
func FormalConsistency(src string, seed int64) error {
	d, diags, err := compile.Compile(src)
	if err != nil || compile.HasErrors(diags) || d == nil {
		return nil
	}
	if len(d.Asserts) == 0 {
		return nil
	}
	opts := formalOpts(seed)
	res, err := formal.Check(context.Background(), d, opts)
	if err != nil {
		// Some programs compile but cannot run: a parameter override can
		// elaborate an expression into an invalid form (e.g. a reversed
		// slice) that every engine rejects at run time. The bounded checker
		// erroring on such a program is consistent, not a violation — but
		// only if the reference interpreter rejects it too.
		if simRejects(src) {
			return nil
		}
		return violation("formal-consistency", "check-error", src, "check error: %v", err)
	}
	if !res.Pass {
		return replayCounterexample(src, res)
	}
	if res.Strategy != "exhaustive-sequences" {
		return nil
	}
	// The exhaustive strategy claims completeness at the bound: no other
	// strategy at the same depth may find a counterexample.
	alt := opts
	alt.MaxExhaustiveBits = 1
	res2, err := formal.Check(context.Background(), d, alt)
	if err != nil {
		return violation("formal-consistency", "check-error", src, "alternate-strategy check error: %v", err)
	}
	if !res2.Pass {
		return violation("formal-consistency", "strategy-disagreement", src,
			"exhaustive-sequences passed at depth %d but strategy %q found a counterexample:\n%s",
			opts.Depth, res2.Strategy, res2.Log)
	}
	return nil
}

// simRejects reports whether the reference interpreter errors on a short
// all-zero run of the program — the "compiles but cannot run" class that
// engine-level errors are held consistent against.
func simRejects(src string) bool {
	d, diags, err := compile.Compile(src)
	if err != nil || compile.HasErrors(diags) || d == nil {
		return true
	}
	stim := sim.VecStimulus{Rows: make([][]uint64, 2)}
	_, err = sim.RunReferenceCtx(context.Background(), d, stim, sim.TwoState)
	return err != nil
}

// replayCounterexample re-drives the counterexample trace's input columns
// through the reference interpreter and requires the named assertion to
// fail at the reported cycle.
func replayCounterexample(src string, res *formal.Result) error {
	if res.Failure == nil || res.Trace == nil {
		return violation("formal-consistency", "replay-miss", src, "failing result carries no counterexample")
	}
	d2, diags, err := compile.Compile(src)
	if err != nil || compile.HasErrors(diags) || d2 == nil {
		return violation("formal-consistency", "replay-miss", src, "replay recompile failed")
	}
	tr := res.Trace
	stim := sim.VecStimulus{Inputs: inputPorts(d2), Rows: make([][]uint64, tr.Len())}
	for c := range stim.Rows {
		row := make([]uint64, len(stim.Inputs))
		for i, in := range stim.Inputs {
			row[i], _ = tr.Value(c, in.Name)
		}
		stim.Rows[c] = row
	}
	rtr, err := sim.RunReferenceCtx(context.Background(), d2, stim, sim.TwoState)
	if err != nil {
		return violation("formal-consistency", "replay-miss", src, "counterexample does not replay: %v", err)
	}
	cres, err := sva.Check(rtr)
	if err != nil {
		return violation("formal-consistency", "replay-miss", src, "counterexample replay sva error: %v", err)
	}
	want := res.Failure
	for _, f := range cres.Failures {
		if f.Assert.Name == want.Assert.Name && f.FailCycle == want.FailCycle && f.StartCycle == want.StartCycle {
			return nil
		}
	}
	var got []string
	for _, f := range cres.Failures {
		got = append(got, f.String())
	}
	return violation("formal-consistency", "replay-miss", src,
		"counterexample for %s (fail cycle %d, start %d) does not replay; replay failures:\n%s",
		want.Assert.Name, want.FailCycle, want.StartCycle, strings.Join(got, "\n"))
}

// ---------------------------------------------------------------------------
// Combined driver entry
// ---------------------------------------------------------------------------

// Check runs all four oracles over one generated module and returns the
// first violation, or nil. The seed drives stimulus and formal search.
func Check(m *verilog.Module, seed int64) error {
	if err := RoundTrip(m); err != nil {
		return err
	}
	src := verilog.Print(m)
	if err := EngineEquivalence(src, seed); err != nil {
		return err
	}
	if err := FormalConsistency(src, seed); err != nil {
		return err
	}
	return LintConsistency(src, seed)
}

// CheckSet runs all four oracles over a multi-module source set. The
// simulation, formal and lint oracles see the printed text and compile it
// through the hierarchy-aware front end, so flattening (instance
// expansion, parameter overrides, clock-domain inference) sits inside
// every differential loop.
func CheckSet(set *verilog.SourceSet, seed int64) error {
	if err := RoundTripSet(set); err != nil {
		return err
	}
	src := verilog.PrintSet(set)
	if err := EngineEquivalence(src, seed); err != nil {
		return err
	}
	if err := FormalConsistency(src, seed); err != nil {
		return err
	}
	return LintConsistency(src, seed)
}

// CheckSource runs all four oracles over program text (parse first). It
// is the entry the regression corpus and the native fuzz targets share.
func CheckSource(src string, seed int64) error {
	if err := RoundTripSource(src); err != nil {
		return err
	}
	if err := EngineEquivalence(src, seed); err != nil {
		return err
	}
	if err := FormalConsistency(src, seed); err != nil {
		return err
	}
	return LintConsistency(src, seed)
}
