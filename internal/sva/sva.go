// Package sva evaluates SystemVerilog Assertions over sampled simulation
// traces. It implements the property subset used by the corpus: clocked
// properties with optional "disable iff", boolean sequence terms joined by
// ##N cycle delays, and the overlapping (|->) and non-overlapping (|=>)
// implication operators, plus the sampled-value functions handled by the
// expression evaluator ($past, $rose, $fell, $stable).
//
// Together with internal/sim and internal/formal this package plays the
// role SymbiYosys plays in the paper: deciding whether a bug/SVA pair
// triggers an assertion failure and producing the failure logs that become
// part of every SVA-Bug and SVA-Eval sample.
package sva

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/compile"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// Failure is one assertion failure detected on a trace.
type Failure struct {
	Assert     compile.ResolvedAssert
	StartCycle int // cycle at which the property attempt began
	FailCycle  int // cycle at which the failing term was evaluated
	Term       verilog.Expr
	// Unknown reports that the failing term sampled x rather than a known
	// 0 (four-state traces only): the assertion fails because its
	// expression is not true, the LRM's not-true rule for assertions.
	Unknown bool
}

// String renders a single failure line.
func (f Failure) String() string {
	how := "false"
	if f.Unknown {
		how = "x"
	}
	return fmt.Sprintf("failed assertion %s at cycle %d (attempt started at cycle %d): %s is %s",
		f.Assert.Name, f.FailCycle, f.StartCycle, verilog.ExprString(f.Term), how)
}

// Result summarises checking all assertions against one trace.
type Result struct {
	Failures []Failure
	// Attempts counts non-vacuous property attempts per assertion name,
	// a coverage signal used by the SVA generator to discard properties
	// whose antecedent never fires.
	Attempts map[string]int
}

// Failed reports whether any assertion failed.
func (r *Result) Failed() bool { return len(r.Failures) > 0 }

// FirstFailure returns the earliest failure by (FailCycle, assertion name),
// or nil.
func (r *Result) FirstFailure() *Failure {
	if len(r.Failures) == 0 {
		return nil
	}
	best := r.Failures[0]
	for _, f := range r.Failures[1:] {
		if f.FailCycle < best.FailCycle ||
			(f.FailCycle == best.FailCycle && f.Assert.Name < best.Assert.Name) {
			best = f
		}
	}
	return &best
}

// Check evaluates every assertion of the trace's design over the trace.
// Property attempts that run past the end of the trace are treated as
// pending (bounded-check semantics), not failures.
//
// Each assertion's boolean terms are resolved once through the trace's
// compiled execution plan (slot-addressed closures; see internal/sim's
// Plan), so the per-start attempt loop evaluates terms without walking the
// AST or hashing signal names.
//
// On a multi-clock trace an assertion advances over the ticks of its own
// clock domain (the rows whose following edge fired that domain): ##N
// delays count ticks of the assertion's clock, not stimulus rows. The
// sampled-value functions ($past and friends) still look back in stimulus
// rows — their history plane is the raw trace.
//
// Check is the one-shot form of the binding a Checker keeps across runs.
func Check(tr *sim.Trace) (*Result, error) {
	var b binding
	b.bind(tr)
	res := &Result{Attempts: map[string]int{}}
	if err := b.check(res); err != nil {
		return nil, err
	}
	return res, nil
}

// binding is every assertion of a design compiled against one trace. The
// evaluators read the trace's rows when called, so a binding stays valid
// while the trace is refilled in place by later runs.
type binding struct {
	tr      *sim.Trace
	asserts []compiledAssert
}

func (b *binding) bind(tr *sim.Trace) {
	b.tr, b.asserts = tr, b.asserts[:0]
	for _, a := range tr.Design.Asserts {
		b.asserts = append(b.asserts, compileAssert(tr, a))
	}
}

// check appends the trace's failures and attempt counts to res.
func (b *binding) check(res *Result) error {
	for i := range b.asserts {
		if err := checkAssert(b.tr, &b.asserts[i], res); err != nil {
			return err
		}
	}
	return nil
}

// compiledAssert is one assertion with its property expressions resolved to
// trace evaluators. Terms evaluate in the trace's value domain: on a
// two-state trace every sampled value is known and the checker behaves
// exactly as before; on a four-state trace an x antecedent term makes the
// attempt undetermined (no match, counted as vacuous) and an x consequent
// term fails the attempt — the sampled expression is not true — with the
// failure marked Unknown. An x disable-iff condition does not disable.
type compiledAssert struct {
	a       compile.ResolvedAssert
	disable sim.CompiledExpr4 // nil when the property has no disable iff
	ante    []compiledTerm
	cons    []compiledTerm
	impl    verilog.ImplKind
}

type compiledTerm struct {
	delay int
	fn    sim.CompiledExpr4
	expr  verilog.Expr
}

func compileAssert(tr *sim.Trace, a compile.ResolvedAssert) compiledAssert {
	ca := compiledAssert{a: a, impl: a.Seq.Impl}
	if a.DisableIff != nil {
		ca.disable = tr.CompileExpr4(a.DisableIff)
	}
	for _, t := range a.Seq.Antecedent {
		ca.ante = append(ca.ante, compiledTerm{delay: t.DelayFromPrev, fn: tr.CompileExpr4(t.Expr), expr: t.Expr})
	}
	for _, t := range a.Seq.Consequent {
		ca.cons = append(ca.cons, compiledTerm{delay: t.DelayFromPrev, fn: tr.CompileExpr4(t.Expr), expr: t.Expr})
	}
	return ca
}

func checkAssert(tr *sim.Trace, ca *compiledAssert, res *Result) error {
	a := ca.a
	ticks := assertTicks(tr, a)
	n := tr.Len()
	if ticks != nil {
		n = len(ticks)
	}
	for start := 0; start < n; start++ {
		outcome, err := evalAttempt(tr, ca, ticks, start)
		if err != nil {
			return err
		}
		switch outcome.kind {
		case attemptFail:
			res.Attempts[a.Name]++
			res.Failures = append(res.Failures, Failure{
				Assert:     a,
				StartCycle: tickCycle(ticks, start),
				FailCycle:  outcome.failCycle,
				Term:       outcome.failTerm,
				Unknown:    outcome.failUnknown,
			})
		case attemptPass:
			res.Attempts[a.Name]++
		}
	}
	return nil
}

// assertTicks returns the trace cycles the assertion samples at: nil on
// single-domain traces (every row is a tick of the only clock), the
// assertion's clock-domain tick cycles on multi-clock traces. An assertion
// without a resolvable clock event samples every row.
func assertTicks(tr *sim.Trace, a compile.ResolvedAssert) []int {
	d := tr.Design
	if !d.MultiClock() || a.Clock.Signal == "" || a.Clock.Edge == verilog.EdgeAny {
		return nil
	}
	for k, cd := range d.Domains {
		if cd.Signal == a.Clock.Signal && cd.Edge == a.Clock.Edge {
			return tr.DomainCycles(k)
		}
	}
	return nil
}

// tickCycle maps an attempt position to its trace cycle.
func tickCycle(ticks []int, pos int) int {
	if ticks == nil {
		return pos
	}
	return ticks[pos]
}

type attemptKind int

const (
	attemptPass attemptKind = iota
	attemptFail
	attemptVacuous // antecedent did not match or attempt disabled
	attemptPending // ran past end of bounded trace
)

type attemptOutcome struct {
	kind        attemptKind
	failCycle   int
	failTerm    verilog.Expr
	failUnknown bool
}

// evalAttempt evaluates one property attempt starting at tick position
// start. Positions count ticks of the assertion's clock: with ticks nil
// (single-domain traces) a position is a trace cycle; otherwise ticks maps
// positions to the trace cycles sampled at that clock's edges.
func evalAttempt(tr *sim.Trace, ca *compiledAssert, ticks []int, start int) (attemptOutcome, error) {
	limit := tr.Len()
	if ticks != nil {
		limit = len(ticks)
	}
	disabled := func(cycle int) (bool, error) {
		if ca.disable == nil {
			return false, nil
		}
		v, err := ca.disable(cycle)
		if err != nil {
			return false, err
		}
		// An x disable condition is not true, so it does not disable.
		return v.IsTrue(), nil
	}

	cursor := start
	// Antecedent phase.
	if ca.impl != verilog.ImplNone {
		for _, term := range ca.ante {
			cursor += term.delay
			if cursor >= limit {
				return attemptOutcome{kind: attemptPending}, nil
			}
			cyc := tickCycle(ticks, cursor)
			if dis, err := disabled(cyc); err != nil {
				return attemptOutcome{}, err
			} else if dis {
				return attemptOutcome{kind: attemptVacuous}, nil
			}
			v, err := term.fn(cyc)
			if err != nil {
				return attemptOutcome{}, err
			}
			// A false or x antecedent term does not match: the attempt is
			// undetermined/vacuous, never a failure.
			if !v.IsTrue() {
				return attemptOutcome{kind: attemptVacuous}, nil
			}
		}
		if ca.impl == verilog.ImplNonOverlap {
			cursor++
		}
	}

	// Consequent phase.
	for _, term := range ca.cons {
		cursor += term.delay
		if cursor >= limit {
			return attemptOutcome{kind: attemptPending}, nil
		}
		cyc := tickCycle(ticks, cursor)
		if dis, err := disabled(cyc); err != nil {
			return attemptOutcome{}, err
		} else if dis {
			return attemptOutcome{kind: attemptVacuous}, nil
		}
		v, err := term.fn(cyc)
		if err != nil {
			return attemptOutcome{}, err
		}
		// A consequent term that is not true fails the attempt; sampling x
		// is recorded as an unknown failure (the not-true rule).
		if !v.IsTrue() {
			return attemptOutcome{kind: attemptFail, failCycle: cyc, failTerm: term.expr, failUnknown: v.IsXBool()}, nil
		}
	}
	return attemptOutcome{kind: attemptPass}, nil
}

// FormatLog renders failures as the simulator/verifier log text attached to
// dataset samples. The format is stable: the repair model parses assertion
// names and signal values out of it.
func FormatLog(moduleName string, tr *sim.Trace, failures []Failure) string {
	if len(failures) == 0 {
		return fmt.Sprintf("%s: all assertions passed (%d cycles)\n", moduleName, tr.Len())
	}
	var sb strings.Builder
	// Group by assertion; report the first failure per assertion plus a
	// total count, the way a bounded model checker reports one
	// counterexample per property.
	byName := map[string][]Failure{}
	var names []string
	for _, f := range failures {
		if _, seen := byName[f.Assert.Name]; !seen {
			names = append(names, f.Assert.Name)
		}
		byName[f.Assert.Name] = append(byName[f.Assert.Name], f)
	}
	sort.Strings(names)
	for _, name := range names {
		fs := byName[name]
		first := fs[0]
		for _, f := range fs[1:] {
			if f.FailCycle < first.FailCycle {
				first = f
			}
		}
		fmt.Fprintf(&sb, "failed assertion %s.%s at cycle %d\n", moduleName, name, first.FailCycle)
		if first.Assert.ErrMsg != "" {
			fmt.Fprintf(&sb, "  message: %s\n", first.Assert.ErrMsg)
		}
		fmt.Fprintf(&sb, "  failing term: %s (attempt started at cycle %d, %d failing attempts in trace)\n",
			verilog.ExprString(first.Term), first.StartCycle, len(fs))
		// Signal values around the failure help localisation.
		ids := signalsOf(first.Assert)
		fmt.Fprintf(&sb, "  sampled values at cycle %d:", first.FailCycle)
		for _, id := range ids {
			if v, ok := tr.Value4(first.FailCycle, id); ok {
				w := 0
				if sig := tr.Design.Signals[id]; sig != nil {
					w = sig.Width
				}
				fmt.Fprintf(&sb, " %s=%s", id, sim.FormatV4(v, w))
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// signalsOf returns the sorted identifiers referenced by an assertion's
// property (antecedent, consequent and disable expressions).
func signalsOf(a compile.ResolvedAssert) []string {
	set := map[string]bool{}
	add := func(e verilog.Expr) {
		for id := range verilog.ExprIdents(e) {
			set[id] = true
		}
	}
	if a.DisableIff != nil {
		add(a.DisableIff)
	}
	if a.Seq != nil {
		for _, t := range a.Seq.Antecedent {
			add(t.Expr)
		}
		for _, t := range a.Seq.Consequent {
			add(t.Expr)
		}
	}
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// AssertSignals exposes the assertion-signal extraction for the repair
// model's localisation features.
func AssertSignals(a compile.ResolvedAssert) []string { return signalsOf(a) }
