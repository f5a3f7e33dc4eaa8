package sva

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"repro/internal/compile"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// term is one property expression compiled for the monitor over a trace.
type term struct {
	expr verilog.Expr
	fn   sim.CompiledExpr4
}

// eval evaluates the term at one sampled cycle as lane-0 words: t is 1
// when the value is true (nonzero and known), x is 1 when it sampled x.
func (tm *term) eval(c int) (t, x uint64, err error) {
	v, err := tm.fn(c)
	if v.IsTrue() {
		t = 1
	} else if v.IsXBool() {
		x = 1
	}
	return t, x, err
}

// property is one assertion laid out for a monitor: its terms in attempt
// order, each at a fixed tick offset from the attempt's start.
type property struct {
	a     *compile.ResolvedAssert
	dis   term   // expr nil when the property has no disable iff
	steps []step // by ascending offset
	span  int    // ticks from an attempt's start to its last term, plus one
}

// step is one term of the attempt, at a fixed offset from its start.
type step struct {
	at   int  // ticks after the attempt's start
	cons bool // a consequent term: not true fails the attempt
	term
}

// newProperty lays out a's terms, compiling each expression with compile.
// An overlapping implication puts the first consequent term on the last
// antecedent term's tick; a non-overlapping one a tick later. A plain
// sequence has only consequent terms.
func newProperty(a *compile.ResolvedAssert, compile func(verilog.Expr) term) property {
	p := property{a: a, steps: make([]step, 0, len(a.Seq.Antecedent)+len(a.Seq.Consequent))}
	if a.DisableIff != nil {
		p.dis = compile(a.DisableIff)
	}
	at := 0
	add := func(ts []verilog.SeqTerm, cons bool) {
		for _, t := range ts {
			// Saturate: an offset past any trace is a term no tick reaches.
			at = min(at+min(t.DelayFromPrev, math.MaxInt32), math.MaxInt32)
			p.steps = append(p.steps, step{at: at, cons: cons, term: compile(t.Expr)})
		}
	}
	if a.Seq.Impl != verilog.ImplNone {
		add(a.Seq.Antecedent, false)
		if a.Seq.Impl == verilog.ImplNonOverlap {
			at++
		}
	}
	add(a.Seq.Consequent, true)
	p.span = at + 1
	return p
}

// monitor is a property's bounded attempt automaton. It advances one tick
// of the assertion's clock at a time and keeps each pending attempt in a
// ring indexed by the attempt's start tick modulo the ring's length (a
// power of two). Every tick starts an attempt; an attempt leaves the ring
// when a term does not match or the disable condition holds (uncounted),
// when a consequent term is not true (a counted failure) or when its last
// term passes (a counted pass). Attempts still pending when the ticks run
// out are neither. An attempt's liveness is a word whose bit 0 is the one
// stimulus a check runs.
//
// A monitor's state is plain words and counters, so copying its ring
// copies the automaton. One monitor runs the properties of a check one
// after another, reusing its ring and event buffer.
type monitor struct {
	p    *property
	ring []attempt // the pending attempts

	count int     // counted attempts
	fails []event // failures in tick order
	err   error   // the evaluation error of the earliest erring attempt
	errAt int     // that attempt's start tick
}

// attempt is one pending attempt: whether it still matches (bit 0) and
// the cycle it started at.
type attempt struct {
	alive uint64
	begun int
}

// event is one failing term evaluation: the attempt started at cycle start
// fails at cycle, x set when term sampled x.
type event struct {
	start, cycle int
	term         verilog.Expr
	x            uint64
}

// reset readies the monitor to run p over at most ticks ticks. The ring
// needs as many slots as attempts can be pending at once: the span, or
// every tick of a shorter run.
func (m *monitor) reset(p *property, ticks int) {
	n := 1 << bits.Len(uint(max(1, min(p.span, ticks))-1))
	if cap(m.ring) < n {
		m.ring = make([]attempt, n)
	}
	m.ring = m.ring[:n]
	clear(m.ring)
	m.p, m.count, m.fails, m.err = p, 0, m.fails[:0], nil
}

// tick advances the monitor over tick p, sampled at cycle c. A term, and
// the disable condition, is evaluated only when an attempt alive at p
// needs it there, so the evaluations are those of checking each attempt on
// its own. An evaluation error ends the erring attempt and is kept if no
// earlier-started attempt erred; tick reports false once every attempt
// started before the kept one has ended, since no later tick can replace
// it.
func (m *monitor) tick(p, c int) bool {
	ring, steps := m.ring, m.p.steps
	mask := len(ring) - 1
	if m.err != nil && p >= m.errAt+m.p.span-1 {
		return false
	}
	ring[p&mask] = attempt{alive: 1, begun: c}
	var dis uint64
	var disErr error
	disDone := m.p.dis.expr == nil
	for k := range steps {
		st := &steps[k]
		s := p - st.at
		if s < 0 {
			break
		}
		att := &ring[s&mask]
		if att.alive == 0 {
			continue
		}
		if !disDone {
			dis, _, disErr = m.p.dis.eval(c) // an x disable condition does not disable
			disDone = true
		}
		t, x, err := uint64(0), uint64(0), disErr
		if err == nil {
			if att.alive &^= dis; att.alive == 0 {
				continue
			}
			t, x, err = st.eval(c)
		}
		if err != nil {
			if m.err == nil || s < m.errAt {
				m.err, m.errAt = err, s
			}
			att.alive = 0
			continue
		}
		if bad := att.alive &^ t; st.cons && bad != 0 {
			m.count++
			m.fails = append(m.fails, event{start: att.begun, cycle: c, term: st.expr, x: x & bad})
		}
		if att.alive &= t; k == len(steps)-1 {
			m.count += int(att.alive)
			att.alive = 0
		}
	}
	return true
}

// failures appends the run's failures to out in attempt-start order, the
// order a per-attempt check finds them in.
func (m *monitor) failures(out []Failure) []Failure {
	slices.SortFunc(m.fails, func(a, b event) int { return cmp.Compare(a.start, b.start) })
	for _, e := range m.fails {
		out = append(out, Failure{Assert: *m.p.a, StartCycle: e.start, FailCycle: e.cycle, Term: e.term, Unknown: e.x != 0})
	}
	return out
}
