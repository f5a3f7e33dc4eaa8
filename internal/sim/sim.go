package sim

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/verilog"
)

// maxCombIterations bounds the combinational settle loop; exceeding it means
// a combinational cycle.
const maxCombIterations = 64

// Simulator advances an elaborated design one clock cycle at a time. It is
// the reference interpreter: it re-walks the AST every cycle with name-keyed
// state, which makes it slow but easy to audit. Run uses the compiled
// slot-indexed plan (see plan.go) and falls back to this interpreter only
// when a design contains a construct the planner cannot lower; the two are
// held byte-identical by the differential tests.
//
// State is kept as two planes: vals (the known bit values) and unks (the
// unknown-bit masks, always empty in TwoState mode). Expressions evaluate
// through Eval in TwoState mode and Eval4 in FourState mode.
type Simulator struct {
	design *compile.Design
	mode   Mode
	vals   map[string]uint64
	unks   map[string]uint64 // nil in TwoState mode
	clock  string
	reset  compile.ResetInfo
	// branches accumulates which polarity of each if statement executed
	// (nil unless RecordBranches enabled it). Sequential blocks record
	// directly; combinational blocks record through branchScratch, which
	// settle merges only from its final, converged iteration so transient
	// polarities taken while the fixpoint was still moving are not counted.
	branches      BranchCoverage
	branchScratch map[verilog.Pos]uint8
}

// New creates a two-state simulator with registers at their declared
// initial values (zero by default) and combinational logic settled.
func New(d *compile.Design) (*Simulator, error) { return NewMode(d, TwoState) }

// NewMode creates a simulator in the given value domain. In FourState mode
// every signal starts unknown except registers with declared initialisers
// (whose x/z literal bits stay unknown); combinational logic is settled
// against that state, so an undriven or unreset register reads as x until
// its first assignment.
func NewMode(d *compile.Design, mode Mode) (*Simulator, error) {
	s := &Simulator{
		design: d,
		mode:   mode,
		vals:   make(map[string]uint64, len(d.Signals)),
		clock:  d.ClockName(),
		reset:  d.Reset(),
	}
	if mode == FourState {
		s.unks = make(map[string]uint64, len(d.Signals))
		for _, name := range d.Order {
			s.unks[name] = d.Signals[name].Mask()
		}
	}
	for name, init := range d.RegInit {
		if sig := d.Signals[name]; sig != nil {
			s.vals[name] = init & sig.Mask()
			if s.unks != nil {
				s.unks[name] = d.RegInitX[name] & sig.Mask()
			}
		}
	}
	if err := s.settle(); err != nil {
		return nil, err
	}
	return s, nil
}

// Design returns the simulated design.
func (s *Simulator) Design() *compile.Design { return s.design }

// Mode returns the simulator's value domain.
func (s *Simulator) Mode() Mode { return s.mode }

// SetInput drives an input port for the upcoming cycle. Driven values are
// fully known.
func (s *Simulator) SetInput(name string, v uint64) error {
	sig := s.design.Signals[name]
	if sig == nil || sig.Kind != compile.SigInput {
		return fmt.Errorf("sim: %q is not an input", name)
	}
	s.setVal(name, known(v&sig.Mask()))
	return nil
}

// Get returns the current value of any signal (the known-bit plane; unknown
// bits read as 0).
func (s *Simulator) Get(name string) (uint64, bool) {
	v, ok := s.get4(name)
	return v.Val, ok
}

// Get4 returns the current four-state value of any signal.
func (s *Simulator) Get4(name string) (V4, bool) { return s.get4(name) }

func (s *Simulator) get4(name string) (V4, bool) {
	sig := s.design.Signals[name]
	if sig == nil {
		if v, ok := s.design.Params[name]; ok {
			return known(v), true
		}
		return V4{}, false
	}
	v := V4{Val: s.vals[name]}
	if s.unks != nil {
		v.Unk = s.unks[name]
	}
	return v, true
}

func (s *Simulator) setVal(name string, v V4) {
	s.vals[name] = v.Val
	if s.unks != nil {
		s.unks[name] = v.Unk
	}
}

// eval evaluates an expression in the simulator's value domain.
func (s *Simulator) eval(e verilog.Expr, env simEnv) (V4, error) {
	if s.mode == FourState {
		return Eval4(e, env)
	}
	v, err := Eval(e, env)
	return known(v), err
}

// simEnv adapts the simulator's value planes (with an optional overlay for
// blocking assignments) to the evaluator's Env/Env4 interfaces.
type simEnv struct {
	s       *Simulator
	overlay map[string]V4
}

// Value implements Env.
func (e simEnv) Value(name string) (uint64, bool) {
	v, ok := e.Value4(name)
	return v.Val, ok
}

// Value4 implements Env4.
func (e simEnv) Value4(name string) (V4, bool) {
	if e.overlay != nil {
		if v, ok := e.overlay[name]; ok {
			return v, true
		}
	}
	return e.s.get4(name)
}

// Width implements Env.
func (e simEnv) Width(name string) int {
	if sig := e.s.design.Signals[name]; sig != nil {
		return sig.Width
	}
	return 0
}

// settle evaluates continuous assignments and combinational always blocks to
// a fixpoint.
func (s *Simulator) settle() error {
	env := simEnv{s: s}
	for iter := 0; iter < maxCombIterations; iter++ {
		if s.branchScratch != nil {
			clear(s.branchScratch)
		}
		changed := false
		for _, as := range s.design.Assigns {
			v, err := s.eval(as.RHS, env)
			if err != nil {
				return err
			}
			if err := s.storeInto(as.LHS, v, env,
				func(name string) V4 { cur, _ := s.get4(name); return cur },
				func(name string, nv V4) {
					if cur, _ := s.get4(name); cur != nv {
						s.setVal(name, nv)
						changed = true
					}
				}); err != nil {
				return err
			}
		}
		for _, al := range s.design.CombAlways {
			updates := map[string]V4{}
			if err := s.exec(al.Body, updates); err != nil {
				return err
			}
			for name, v := range updates {
				if cur, _ := s.get4(name); cur != v {
					s.setVal(name, v)
					changed = true
				}
			}
		}
		if !changed {
			for pos, bits := range s.branchScratch {
				s.branches[pos] |= bits
			}
			return nil
		}
	}
	return fmt.Errorf("sim: combinational logic did not settle (cycle?)")
}

// storeInto decomposes an assignment of v to lhs into per-signal effects,
// masked to each signal's width. base resolves the current value of a
// signal for read-modify-write bit/slice targets; env evaluates dynamic
// index/bound expressions (and therefore sees the caller's blocking
// overlay); apply receives each (signal, value) effect in program order.
// In FourState mode a write through an unknown index or bound is a no-op
// (IEEE 1364 §9.2.2: the assignment has no effect), and in both modes so is
// a write through an index >= 64, past the widest signal.
func (s *Simulator) storeInto(lhs verilog.Expr, v V4, env simEnv, base func(string) V4, apply func(string, V4)) error {
	switch x := lhs.(type) {
	case *verilog.Ident:
		sig := s.design.Signals[x.Name]
		if sig == nil {
			return fmt.Errorf("sim: assignment to unknown signal %q", x.Name)
		}
		apply(x.Name, v.maskV(sig.Mask()).norm())
		return nil
	case *verilog.Index:
		id, ok := x.X.(*verilog.Ident)
		if !ok {
			return fmt.Errorf("sim: unsupported assignment target")
		}
		idx, err := s.eval(x.Idx, env)
		if err != nil {
			return err
		}
		if idx.Unk != 0 || idx.Val >= 64 {
			return nil // write at an unknown or out-of-range index: no effect
		}
		cur := base(id.Name)
		sh := idx.Val
		bit := uint64(1) << sh
		nv := V4{
			Val: (cur.Val &^ bit) | ((v.Val & 1) << sh),
			Unk: (cur.Unk &^ bit) | ((v.Unk & 1) << sh),
		}
		return s.storeInto(id, nv, env, base, apply)
	case *verilog.Slice:
		id, ok := x.X.(*verilog.Ident)
		if !ok {
			return fmt.Errorf("sim: unsupported assignment target")
		}
		hi, err := s.eval(x.Hi, env)
		if err != nil {
			return err
		}
		lo, err := s.eval(x.Lo, env)
		if err != nil {
			return err
		}
		if hi.Unk|lo.Unk != 0 {
			return nil // write at unknown bounds: no effect
		}
		if lo.Val > hi.Val {
			return fmt.Errorf("sim: invalid slice target")
		}
		cur := base(id.Name)
		m := maskFor(int(hi.Val-lo.Val)+1) << lo.Val
		nv := V4{
			Val: (cur.Val &^ m) | ((v.Val << lo.Val) & m),
			Unk: (cur.Unk &^ m) | ((v.Unk << lo.Val) & m),
		}
		return s.storeInto(id, nv, env, base, apply)
	case *verilog.Concat:
		// {a, b} = v assigns slices of v left to right.
		total := 0
		widths := make([]int, len(x.Elems))
		for i, el := range x.Elems {
			widths[i] = ExprWidth(el, env)
			total += widths[i]
		}
		shift := total
		for i, el := range x.Elems {
			shift -= widths[i]
			part := V4{
				Val: (v.Val >> uint(shift)) & maskFor(widths[i]),
				Unk: (v.Unk >> uint(shift)) & maskFor(widths[i]),
			}
			if err := s.storeInto(el, part, env, base, apply); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("sim: unsupported assignment target %T", lhs)
}

// exec runs a statement with blocking semantics into the overlay map
// `updates` acting as both blocking overlay and result set. Used for
// combinational always blocks.
func (s *Simulator) exec(stmt verilog.Stmt, updates map[string]V4) error {
	env := simEnv{s: s, overlay: updates}
	switch x := stmt.(type) {
	case *verilog.Block:
		for _, sub := range x.Stmts {
			if err := s.exec(sub, updates); err != nil {
				return err
			}
		}
		return nil
	case *verilog.Blocking, *verilog.NonBlocking:
		var lhs, rhs verilog.Expr
		if b, ok := x.(*verilog.Blocking); ok {
			lhs, rhs = b.LHS, b.RHS
		} else {
			nb := x.(*verilog.NonBlocking)
			lhs, rhs = nb.LHS, nb.RHS
		}
		v, err := s.eval(rhs, env)
		if err != nil {
			return err
		}
		return s.storeInto(lhs, v, env,
			func(name string) V4 {
				if pending, ok := updates[name]; ok {
					return pending
				}
				cur, _ := s.get4(name)
				return cur
			},
			func(name string, nv V4) { updates[name] = nv })
	case *verilog.If:
		c, err := s.eval(x.Cond, env)
		if err != nil {
			return err
		}
		if s.branchScratch != nil {
			s.branchScratch[x.Pos] |= branchBit(c)
		}
		// An x condition is treated as false (IEEE 1364 §9.4).
		if c.IsTrue() {
			return s.exec(x.Then, updates)
		}
		if x.Else != nil {
			return s.exec(x.Else, updates)
		}
		return nil
	case *verilog.Case:
		return s.execCase(x, updates, env)
	}
	return nil
}

// caseMatches reports whether a case label selects the subject. TwoState
// compares the known planes (the historical behaviour, where x/z label
// bits decoded to 0); FourState uses case equality over both planes, so an
// x label matches exactly an x subject bit.
func (s *Simulator) caseMatches(label, subj V4) bool {
	if s.mode == FourState {
		return label == subj
	}
	return label.Val == subj.Val
}

func (s *Simulator) execCase(x *verilog.Case, updates map[string]V4, env simEnv) error {
	subj, err := s.eval(x.Subject, env)
	if err != nil {
		return err
	}
	var deflt verilog.Stmt
	for _, item := range x.Items {
		if item.Exprs == nil {
			deflt = item.Body
			continue
		}
		for _, le := range item.Exprs {
			lv, err := s.eval(le, env)
			if err != nil {
				return err
			}
			if s.caseMatches(lv, subj) {
				return s.exec(item.Body, updates)
			}
		}
	}
	if deflt != nil {
		return s.exec(deflt, updates)
	}
	return nil
}

// edge runs the selected sequential blocks against pre-edge values and
// commits the resulting writes. Within one block, writes to the same signal
// commit in program order: the last assignment wins at the edge whether it
// was blocking or nonblocking (blocking writes are additionally visible to
// later reads in their own block).
func (s *Simulator) edge(fired uint64) error {
	commit := map[string]V4{}
	multi := s.design.MultiClock()
	for i, al := range s.design.SeqAlways {
		if multi && fired>>uint(s.design.DomainOf[i])&1 == 0 {
			continue
		}
		blocking := map[string]V4{}
		if err := s.execSeq(al.Body, commit, blocking); err != nil {
			return err
		}
	}
	for name, v := range commit {
		if sig := s.design.Signals[name]; sig != nil {
			s.setVal(name, v)
		}
	}
	return s.settle()
}

// execSeq runs a sequential block body. Reads see pre-edge values overlaid
// with this block's blocking assignments; every write lands in commit in
// program order, and blocking writes additionally update the read overlay.
func (s *Simulator) execSeq(stmt verilog.Stmt, commit, blocking map[string]V4) error {
	env := simEnv{s: s, overlay: blocking}
	switch x := stmt.(type) {
	case *verilog.Block:
		for _, sub := range x.Stmts {
			if err := s.execSeq(sub, commit, blocking); err != nil {
				return err
			}
		}
		return nil
	case *verilog.NonBlocking:
		v, err := s.eval(x.RHS, env)
		if err != nil {
			return err
		}
		// Bit/slice RMW reads the latest pending post-edge value, so an
		// earlier blocking (or nonblocking) write in this edge is not lost.
		return s.storeInto(x.LHS, v, env,
			func(name string) V4 {
				if pending, ok := commit[name]; ok {
					return pending
				}
				if pending, ok := blocking[name]; ok {
					return pending
				}
				cur, _ := s.get4(name)
				return cur
			},
			func(name string, nv V4) { commit[name] = nv })
	case *verilog.Blocking:
		v, err := s.eval(x.RHS, env)
		if err != nil {
			return err
		}
		return s.storeInto(x.LHS, v, env,
			func(name string) V4 {
				if pending, ok := blocking[name]; ok {
					return pending
				}
				cur, _ := s.get4(name)
				return cur
			},
			func(name string, nv V4) {
				blocking[name] = nv
				commit[name] = nv
			})
	case *verilog.If:
		c, err := s.eval(x.Cond, env)
		if err != nil {
			return err
		}
		if s.branches != nil {
			// Pre-edge values are stable, so sequential polarities are
			// recorded directly (no scratch/merge needed).
			s.branches[x.Pos] |= branchBit(c)
		}
		if c.IsTrue() {
			return s.execSeq(x.Then, commit, blocking)
		}
		if x.Else != nil {
			return s.execSeq(x.Else, commit, blocking)
		}
		return nil
	case *verilog.Case:
		subj, err := s.eval(x.Subject, env)
		if err != nil {
			return err
		}
		var deflt verilog.Stmt
		for _, item := range x.Items {
			if item.Exprs == nil {
				deflt = item.Body
				continue
			}
			for _, le := range item.Exprs {
				lv, err := s.eval(le, env)
				if err != nil {
					return err
				}
				if s.caseMatches(lv, subj) {
					return s.execSeq(item.Body, commit, blocking)
				}
			}
		}
		if deflt != nil {
			return s.execSeq(deflt, commit, blocking)
		}
		return nil
	}
	return nil
}

// snapshotRow copies the current known-bit values into a dense slot vector.
func (s *Simulator) snapshotRow() []uint64 {
	row := make([]uint64, len(s.design.Order))
	for _, name := range s.design.Order {
		row[s.design.Signals[name].Slot] = s.vals[name]
	}
	return row
}

// snapshotUnkRow copies the current unknown-bit masks into a dense slot
// vector (nil when the simulator is two-state).
func (s *Simulator) snapshotUnkRow() []uint64 {
	if s.unks == nil {
		return nil
	}
	row := make([]uint64, len(s.design.Order))
	for _, name := range s.design.Order {
		row[s.design.Signals[name].Slot] = s.unks[name]
	}
	return row
}
