package sim

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/compile"
	"repro/internal/verilog"
)

// Trace is the sampled history of a simulation run. Row i holds the
// preponed sample for clock cycle i: the value of every signal immediately
// before the i-th rising clock edge. This matches SVA sampling semantics,
// so the SVA checker evaluates properties directly over trace rows.
//
// Rows are dense slot vectors indexed by compile.Signal.Slot; names are
// materialised only at the API boundary (Value, Format). A Trace is not
// safe for concurrent use while compiled expressions are being evaluated.
type Trace struct {
	Design *compile.Design
	rows   [][]uint64
	// unks is the unknown-bit plane of a four-state trace, row-parallel to
	// rows; nil for two-state traces (everything known).
	unks [][]uint64
	plan *Plan // nil when produced by the reference interpreter
	em   *mach // lazy shared machine for compiled evaluation
	em4  *mach // lazy shared machine for compiled four-state evaluation

	// fired[c] is the per-domain fired mask of the edge that followed row c
	// (bit k set = Design.Domains[k] ticked); nil for single-domain traces,
	// where every row is one tick of the only clock.
	fired []uint64
}

// Len returns the number of sampled cycles.
func (t *Trace) Len() int { return len(t.rows) }

// Mode returns the value domain the trace was sampled in.
func (t *Trace) Mode() Mode {
	if t.unks != nil {
		return FourState
	}
	return TwoState
}

// Value returns signal name's sampled value at cycle (the known-bit plane;
// unknown bits read as 0).
func (t *Trace) Value(cycle int, name string) (uint64, bool) {
	v, ok := t.Value4(cycle, name)
	return v.Val, ok
}

// Value4 returns signal name's sampled four-state value at cycle.
func (t *Trace) Value4(cycle int, name string) (V4, bool) {
	if cycle < 0 || cycle >= len(t.rows) {
		return V4{}, false
	}
	if sig := t.Design.Signals[name]; sig != nil {
		v := V4{Val: t.rows[cycle][sig.Slot]}
		if t.unks != nil {
			v.Unk = t.unks[cycle][sig.Slot]
		}
		return v, true
	}
	if pv, ok := t.Design.Params[name]; ok {
		return known(pv), true
	}
	return V4{}, false
}

// Fired returns the per-domain fired mask for the edge that followed
// cycle's sample (bit k set = Design.Domains[k] ticked there). Single-domain
// traces report every domain fired at every cycle.
func (t *Trace) Fired(cycle int) uint64 {
	if t.fired == nil {
		return firedAll
	}
	return t.fired[cycle]
}

// DomainCycles returns the cycles sampled at domain's clock ticks — the
// sub-sequence a domain-clocked assertion advances over. For single-domain
// traces that is every cycle.
func (t *Trace) DomainCycles(domain int) []int {
	out := make([]int, 0, len(t.rows))
	for c := range t.rows {
		if t.Fired(c)>>uint(domain)&1 != 0 {
			out = append(out, c)
		}
	}
	return out
}

// Row returns the slot vector sampled at cycle (shared, read-only).
func (t *Trace) Row(cycle int) []uint64 { return t.rows[cycle] }

// UnkRow returns the unknown-bit slot vector sampled at cycle, or nil for a
// two-state trace (shared, read-only).
func (t *Trace) UnkRow(cycle int) []uint64 {
	if t.unks == nil {
		return nil
	}
	return t.unks[cycle]
}

// CompiledExpr evaluates an expression at a sampled cycle of one trace.
type CompiledExpr func(cycle int) (uint64, error)

// CompileExpr returns an evaluator for e over this trace's sampled rows,
// with history access for the SVA sampled-value functions. Expressions
// reachable from the design's assertions resolve to the plan's precompiled
// slot-addressed closures; anything else (or any trace produced by the
// reference interpreter) falls back to the interpretive evaluator, which
// computes identical results.
func (t *Trace) CompileExpr(e verilog.Expr) CompiledExpr {
	if t.plan != nil {
		if fn, ok := t.plan.sva[e]; ok {
			if t.em == nil {
				t.em = traceMach(t.plan, t.rows)
			}
			m := t.em
			return func(cycle int) (uint64, error) {
				m.vals, m.idx, m.err = t.rows[cycle], cycle, nil
				v := fn(m)
				return v, m.err
			}
		}
	}
	return func(cycle int) (uint64, error) {
		return Eval(e, traceRowEnv{t: t, idx: cycle})
	}
}

// CompiledExpr4 evaluates an expression in the four-state domain at a
// sampled cycle of one trace.
type CompiledExpr4 func(cycle int) (V4, error)

// CompileExpr4 returns a four-state evaluator for e over this trace's
// sampled rows. On a two-state trace everything is known and the result is
// the two-state evaluation lifted into the Val plane — built directly over
// the plan's compiled closure so the formal checker's hot loop pays no
// extra indirection. On a four-state trace, assertion-reachable
// expressions resolve to the plan's compiled four-state closures with the
// interpretive Eval4 as the fallback.
func (t *Trace) CompileExpr4(e verilog.Expr) CompiledExpr4 {
	if t.unks == nil {
		if t.plan != nil {
			if fn, ok := t.plan.sva[e]; ok {
				if t.em == nil {
					t.em = traceMach(t.plan, t.rows)
				}
				m := t.em
				return func(cycle int) (V4, error) {
					m.vals, m.idx, m.err = t.rows[cycle], cycle, nil
					v := fn(m)
					return V4{Val: v}, m.err
				}
			}
		}
		return func(cycle int) (V4, error) {
			v, err := Eval(e, traceRowEnv{t: t, idx: cycle})
			return known(v), err
		}
	}
	if t.plan != nil {
		if p4 := t.plan.fourState(); p4 != nil {
			if fn, ok := p4.sva[e]; ok {
				if t.em4 == nil {
					t.em4 = traceMach4(t.plan, t.rows, t.unks)
				}
				m := t.em4
				return func(cycle int) (V4, error) {
					m.vals, m.unks, m.idx, m.err = t.rows[cycle], t.unks[cycle], cycle, nil
					v := fn(m)
					return v, m.err
				}
			}
		}
	}
	return func(cycle int) (V4, error) {
		return Eval4(e, traceRowEnv{t: t, idx: cycle})
	}
}

// traceRowEnv adapts a trace row to the evaluator environment, with history
// access for sampled-value functions. It is the interpretive twin of the
// plan's compiled trace evaluation.
type traceRowEnv struct {
	t   *Trace
	idx int
}

// Value implements Env.
func (e traceRowEnv) Value(name string) (uint64, bool) { return e.t.Value(e.idx, name) }

// Value4 implements Env4.
func (e traceRowEnv) Value4(name string) (V4, bool) { return e.t.Value4(e.idx, name) }

// Width implements Env.
func (e traceRowEnv) Width(name string) int {
	if sig := e.t.Design.Signals[name]; sig != nil {
		return sig.Width
	}
	return 0
}

// At implements HistoryEnv.
func (e traceRowEnv) At(offset int) Env {
	if e.idx-offset < 0 {
		return nil
	}
	return traceRowEnv{t: e.t, idx: e.idx - offset}
}

// Format renders the trace as a compact waveform table for counterexample
// logs, limited to the named signals (or all signals when names is nil).
// Cells are sized to the widest rendered value, so partially-unknown
// vectors (rendered per-bit, e.g. b0000001x) keep the cycle columns
// aligned.
func (t *Trace) Format(names []string) string {
	if names == nil {
		names = t.Design.Order
	}
	width := 0
	for _, n := range names {
		if len(n) > width {
			width = len(n)
		}
	}
	cells := make([][]string, len(names))
	cell := 3
	for ni, n := range names {
		w := 0
		if sig := t.Design.Signals[n]; sig != nil {
			w = sig.Width
		}
		cells[ni] = make([]string, len(t.rows))
		for i := range t.rows {
			v, _ := t.Value4(i, n)
			cells[ni][i] = FormatV4(v, w)
			if len(cells[ni][i]) > cell {
				cell = len(cells[ni][i])
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%*s |", width, "cycle")
	for i := range t.rows {
		fmt.Fprintf(&sb, " %*d", cell, i)
	}
	sb.WriteString("\n")
	for ni, n := range names {
		fmt.Fprintf(&sb, "%*s |", width, n)
		for i := range t.rows {
			fmt.Fprintf(&sb, " %*s", cell, cells[ni][i])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Stimulus drives a simulation: one map of input values per clock cycle.
// The clock itself is implicit (one rising edge per entry). Reset values are
// supplied like any other input.
type Stimulus []map[string]uint64

// InputNames returns the sorted set of input names mentioned anywhere in the
// stimulus, used for validation and logging.
func (st Stimulus) InputNames() []string {
	set := map[string]bool{}
	for _, cyc := range st {
		for name := range cyc {
			set[name] = true
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// VecStimulus drives a fixed input list with dense per-cycle vectors:
// Rows[c][i] is the value of Inputs[i] at cycle c. It is the slot-addressed
// form the bounded model checker's stimulus loops generate, avoiding one
// map allocation and one name hash per input per cycle.
type VecStimulus struct {
	Inputs []*compile.Signal
	Rows   [][]uint64
}

// maps materialises the equivalent map stimulus for reference fallbacks.
func (st VecStimulus) maps() Stimulus {
	ms := make(Stimulus, len(st.Rows))
	for c, row := range st.Rows {
		cyc := make(map[string]uint64, len(st.Inputs))
		for i, in := range st.Inputs {
			cyc[in.Name] = row[i]
		}
		ms[c] = cyc
	}
	return ms
}
