package sim

import (
	"repro/internal/compile"
	"repro/internal/verilog"
)

// This file is the multi-clock seam shared by every engine. A single-domain
// design never allocates any of these trackers and takes exactly the
// pre-existing code path: each stimulus row is one implicit tick of the one
// clock. A multi-clock design (compile.Design.MultiClock) instead derives a
// per-domain "fired" mask each cycle from the clock input's transition
// between the previous row and the current one, and the edge runs only the
// sequential blocks whose domain fired.
//
// The transition rule, identical across all engines: a posedge domain fires
// on a 0->1 transition of its clock bit, a negedge domain on 1->0. In
// four-state mode a transition involving an unknown sample (either side)
// never fires, so an x-driven clock holds its registers at x-reset state
// rather than inventing an edge. The "previous" value at cycle 0 is the
// machine's initial state: 0 in two-state mode (a clock driven high on the
// first row fires), x in four-state mode (the first row never fires).

// firedAll selects every domain; single-clock paths pass it so the filtered
// edge degenerates to the unconditional loop.
const firedAll = ^uint64(0)

// clocks tracks a multi-clock design's domain clocks across one run.
// Every quantity is a word: a packed 64-lane word on the lane engine, and
// the slot value itself — a one-lane word — on the scalar engines, whose
// fired mask takes bit 0 of each domain's word (Trace.record). Elaboration
// validated every domain clock as a 1-bit input port, so a scalar word is
// 0 or 1. clocksOf returns nil for single-domain designs.
type clocks struct {
	slots []int32
	neg   []bool
	prevV []uint64 // committed clock word per domain before this cycle's inputs
	prevU []uint64 // its unknown plane (stays 0 in two-state runs)
	fired []uint64 // scratch: per-domain fired words of the coming edge
}

func clocksOf(d *compile.Design) *clocks {
	if !d.MultiClock() {
		return nil
	}
	n := len(d.Domains)
	ck := &clocks{
		slots: make([]int32, n),
		neg:   make([]bool, n),
		prevV: make([]uint64, n),
		prevU: make([]uint64, n),
		fired: make([]uint64, n),
	}
	for k, dom := range d.Domains {
		ck.slots[k] = int32(d.Signals[dom.Signal].Slot)
		ck.neg[k] = dom.Edge == verilog.EdgeNeg
	}
	return ck
}

// capture records the committed clock words before a cycle's inputs are
// applied. unks is nil in two-state runs; the first capture sees the
// machine's initial state.
func (ck *clocks) capture(vals, unks []uint64) {
	for k, slot := range ck.slots {
		ck.prevV[k] = vals[slot]
		if unks != nil {
			ck.prevU[k] = unks[slot]
		}
	}
}

// fire computes the per-domain fired words of the coming edge from the
// captured words and the post-input clock state. The returned slice is
// scratch reused across cycles; callers that retain it must copy.
func (ck *clocks) fire(vals, unks []uint64) []uint64 {
	for k, slot := range ck.slots {
		cur := vals[slot]
		f := cur &^ ck.prevV[k]
		if ck.neg[k] {
			f = ck.prevV[k] &^ cur
		}
		f &^= ck.prevU[k]
		if unks != nil {
			f &^= unks[slot]
		}
		ck.fired[k] = f
	}
	return ck.fired
}
