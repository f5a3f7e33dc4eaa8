package sim

import (
	"repro/internal/verilog"
)

// Branch polarity bits recorded by the reference interpreter's branch
// instrumentation: which side of an if statement actually executed.
const (
	BranchThen uint8 = 1 << iota
	BranchElse
)

// BranchCoverage maps the source position of each executed if statement to
// the polarity bits taken over a run. An if whose condition never evaluated
// (dead enclosing code, or the design never settled) has no entry. Positions
// are the keys, so coverage is only meaningful for designs parsed from
// source, where every statement carries a distinct position; in
// programmatically built ASTs all positions are zero and distinct ifs would
// alias one entry.
type BranchCoverage map[verilog.Pos]uint8

// branchBit converts an evaluated if condition into its polarity bit,
// mirroring the interpreter's branch choice (an x condition takes else).
func branchBit(c V4) uint8 {
	if c.IsTrue() {
		return BranchThen
	}
	return BranchElse
}

// recordBranches enables branch-polarity recording on the simulator.
// Combinational polarities are counted only from each settle call's final,
// converged iteration: a polarity taken transiently while the comb fixpoint
// was still propagating is an artifact of evaluation order, not of the
// settled circuit, and would falsely contradict a statically-proved dead
// branch. Call before driving any cycles; the constructor's initial settle
// happens before recording can be enabled and is not covered.
func (s *Simulator) recordBranches() {
	s.branches = BranchCoverage{}
	s.branchScratch = map[verilog.Pos]uint8{}
}
