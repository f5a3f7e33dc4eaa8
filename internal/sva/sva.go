// Package sva evaluates SystemVerilog Assertions over sampled simulation
// traces. It implements the property subset used by the corpus: clocked
// properties with optional "disable iff", boolean sequence terms joined by
// ##N cycle delays, and the overlapping (|->) and non-overlapping (|=>)
// implication operators, plus the sampled-value functions handled by the
// expression evaluator ($past, $rose, $fell, $stable).
//
// Every check runs one monitor per assertion. Each term sits at a fixed
// tick offset from an attempt's start, so an attempt spans a fixed number
// of ticks — its ##N delays, plus one for |=> — and no more attempts than
// that are pending at once. The monitor advances one tick of the
// assertion's clock at a time, starts an attempt at every tick and keeps
// the pending ones as 64-lane words of lanes still matching, evaluating
// each term at most once per tick and only when a pending attempt needs
// it. A tick is every trace row, or on a multi-clock trace each row whose
// following edge fired the assertion's clock domain. Check and Checker
// feed it one lane from a trace; CheckLanes feeds it packed truth words
// from a lane batch. The per-attempt checkers it replaced are kept in the
// package's tests as the oracle it must match byte for byte.
//
// Together with internal/sim and internal/formal this package plays the
// role SymbiYosys plays in the paper: deciding whether a bug/SVA pair
// triggers an assertion failure and producing the failure logs that become
// part of every SVA-Bug and SVA-Eval sample.
package sva

import (
	"fmt"
	"slices"
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
// Plan), and its monitor evaluates each term at most once per tick.
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

// binding is every assertion of a design compiled against one trace, and
// the monitor that runs them. The evaluators read the trace's rows when
// called, so a binding stays valid while the trace is refilled in place by
// later runs.
type binding struct {
	tr    *sim.Trace
	props []property
	m     monitor
}

// bind compiles every assertion against tr. Terms evaluate in the trace's
// value domain: on a two-state trace every sampled value is known; on a
// four-state trace an x antecedent term does not match (the attempt is
// vacuous), an x consequent term fails the attempt — the sampled
// expression is not true — with the failure marked Unknown, and an x
// disable-iff condition does not disable.
func (b *binding) bind(tr *sim.Trace) {
	b.tr, b.props = tr, slices.Grow(b.props[:0], len(tr.Design.Asserts))
	word := func(e verilog.Expr) term { return term{expr: e, fn4: tr.CompileExpr4(e)} }
	for i := range tr.Design.Asserts {
		b.props = append(b.props, newProperty(&tr.Design.Asserts[i], word))
	}
}

// check runs the monitor over the trace for every assertion in order, on
// its clock domain's ticks, and appends the failures and attempt counts to
// res.
func (b *binding) check(res *Result) error {
	n, m := b.tr.Len(), &b.m
	for i := range b.props {
		dom := assertDomain(b.tr.Design, b.props[i].a)
		m.reset(&b.props[i], n, 1)
		p := 0
		for c := 0; c < n; c++ {
			if dom >= 0 && b.tr.Fired(c)>>uint(dom)&1 == 0 {
				continue
			}
			if !m.tick(p, c) {
				break
			}
			p++
		}
		if m.err != nil {
			return m.err
		}
		res.Failures = m.failures(res.Failures)
		if m.count > 0 {
			res.Attempts[b.props[i].a.Name] += m.count
		}
	}
	return nil
}

// assertDomain returns the clock domain an assertion samples on: -1 on
// single-domain designs (every row is a tick of the only clock) and for an
// assertion without a resolvable clock event, which samples every row.
func assertDomain(d *compile.Design, a *compile.ResolvedAssert) int {
	if !d.MultiClock() || a.Clock.Signal == "" || a.Clock.Edge == verilog.EdgeAny {
		return -1
	}
	for k, cd := range d.Domains {
		if cd.Signal == a.Clock.Signal && cd.Edge == a.Clock.Edge {
			return k
		}
	}
	return -1
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
