package sim

import (
	"fmt"
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
//
// A trace a VecRunner returns is the runner's own: the next run overwrites
// it in place unless VecRunner.Detach hands it to the caller first.
type Trace struct {
	Design *compile.Design
	rows   [][]uint64
	// unks is the unknown-bit plane of a four-state trace, row-parallel to
	// rows; nil for two-state traces (everything known).
	unks [][]uint64
	// vslab and uslab back rows and unks: one contiguous slab per value
	// plane, row c at [c*n, (c+1)*n) for n slots.
	vslab, uslab []uint64

	plan *Plan // nil when produced by the reference interpreter
	em   *mach // lazy shared machine for compiled evaluation
	// interp is the interpretive evaluator CompileExpr4 resolves through
	// on a trace the reference interpreter produced; nil on a plan trace.
	// Only the reference run sets it, so a binary that never runs the
	// reference interpreter links none of its evaluator.
	interp func(*Trace, verilog.Expr) CompiledExpr4

	// fired[c] is the per-domain fired mask of the edge that followed row c
	// (bit k set = Design.Domains[k] ticked); nil for single-domain traces,
	// where every row is one tick of the only clock.
	fired []uint64
}

// reset shapes the trace for a run of rows cycles over n slots in mode,
// reusing its slabs when they are large enough. Every row is sliced up
// front, so the run records cycle c by copying into row c, and the lazy
// evaluation machines see the trace's final shape.
func (t *Trace) reset(n, rows int, mode Mode) {
	t.rows, t.vslab = sliceRows(t.rows, t.vslab, n, rows)
	if mode == FourState {
		t.unks, t.uslab = sliceRows(t.unks, t.uslab, n, rows)
	} else {
		t.unks = nil
	}
	t.fired = t.fired[:0]
	if t.em != nil {
		t.em.rows, t.em.rows4 = t.rows, t.unks
	}
}

// sliceRows cuts rows row headers of n slots each out of slab, growing
// either when it is too small. The result is never nil, so a four-state
// trace of zero rows still reports its mode.
func sliceRows(hdr [][]uint64, slab []uint64, n, rows int) ([][]uint64, []uint64) {
	if cap(slab) < n*rows {
		slab = make([]uint64, n*rows)
	}
	if hdr == nil || cap(hdr) < rows {
		hdr = make([][]uint64, rows)
	}
	hdr = hdr[:rows]
	for c := range hdr {
		hdr[c] = slab[c*n : (c+1)*n : (c+1)*n]
	}
	return hdr, slab
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

// CompiledExpr4 evaluates an expression in the four-state domain at a
// sampled cycle of one trace.
type CompiledExpr4 func(cycle int) (V4, error)

// CompileExpr4 returns a four-state evaluator for e over this trace's
// sampled rows, with history access for the SVA sampled-value functions.
// On a plan trace e resolves to the plan's compiled closure in the trace's
// value domain, whose Unk word is 0 on a two-state trace; the plan lowers
// every expression of the design's assertions, and the evaluator of any
// other expression reports an error. A trace the reference interpreter
// produced evaluates e on the interpreter instead (interpretExpr), which
// computes identical results.
func (t *Trace) CompileExpr4(e verilog.Expr) CompiledExpr4 {
	if t.interp != nil {
		return t.interp(t, e)
	}
	fn, ok := t.plan.lowering(t.Mode()).sva[e]
	if !ok {
		err := evalErrf(e.Span(), "expression %s is not lowered with the design", verilog.ExprString(e))
		return func(int) (V4, error) { return V4{}, err }
	}
	m := t.evalMach()
	return func(cycle int) (V4, error) {
		m.seek(cycle)
		v, u := fn(m)
		return V4{Val: v, Unk: u}, m.err
	}
}

// interpretExpr is a reference trace's CompileExpr4: the interpretive
// evaluator of e in the trace's value domain.
func interpretExpr(t *Trace, e verilog.Expr) CompiledExpr4 {
	if t.unks == nil {
		return func(cycle int) (V4, error) {
			v, err := Eval(e, traceRowEnv{t: t, idx: cycle})
			return known(v), err
		}
	}
	return func(cycle int) (V4, error) {
		return Eval4(e, traceRowEnv{t: t, idx: cycle})
	}
}

// evalMach returns the trace's shared machine for compiled evaluation,
// creating it on first use.
func (t *Trace) evalMach() *mach {
	if t.em == nil {
		t.em = traceMach(t.plan, t.rows, t.unks)
	}
	return t.em
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

// VecStimulus drives a simulation over a fixed input list with dense
// per-cycle vectors: Rows[c][i] is the value of Inputs[i] at cycle c, and
// every row holds exactly len(Inputs) values. In a single-clock design the
// clock is implicit, one rising edge per row whatever a clock column holds;
// in a multi-clock design each domain ticks on the edges its clock input
// makes from row to row. Reset is supplied like any other input. Every
// listed input is driven, fully known, on every row; an input not listed
// is never driven and reads 0 in two-state runs and x in four-state runs.
type VecStimulus struct {
	Inputs []*compile.Signal
	Rows   [][]uint64
}

// checkShape reports the first row that does not hold one value per input.
func (st VecStimulus) checkShape() error {
	for c, row := range st.Rows {
		if len(row) != len(st.Inputs) {
			return fmt.Errorf("sim: stimulus row %d holds %d values for %d inputs", c, len(row), len(st.Inputs))
		}
	}
	return nil
}
