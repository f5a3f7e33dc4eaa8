package sim

import (
	"fmt"
	"slices"

	"repro/internal/compile"
	"repro/internal/verilog"
)

// LaneStimulus drives a lane batch: up to 64 independent stimuli over the
// same input list and depth, packed one bit per lane for single-bit inputs
// and one 64-entry vector per cycle for wider ones. Lanes >= N are ignored
// (RunLanesCtx replicates lane N-1 into them so word kernels never see
// garbage).
type LaneStimulus struct {
	Inputs []*compile.Signal
	N      int // active lanes, 1..64
	Depth  int // cycles

	// Bits[c][i] packs input i at cycle c across lanes (bit l = lane l's
	// value), valid when Inputs[i].Width == 1.
	Bits [][]uint64
	// Wide[c][i][l] is lane l's value for input i at cycle c, allocated only
	// for inputs wider than one bit (nil entries otherwise).
	Wide [][][]uint64
}

// PackStimuli packs 1..64 stimuli over identical input lists and depths
// into one lane batch; stimulus j becomes lane j.
func PackStimuli(stims []VecStimulus) (*LaneStimulus, error) {
	if len(stims) == 0 || len(stims) > 64 {
		return nil, fmt.Errorf("sim: lane batch must hold 1..64 stimuli, got %d", len(stims))
	}
	first := stims[0]
	depth := len(first.Rows)
	for j, st := range stims {
		if err := st.checkShape(); err != nil {
			return nil, fmt.Errorf("lane %d: %w", j, err)
		}
		if len(st.Inputs) != len(first.Inputs) || len(st.Rows) != depth {
			return nil, fmt.Errorf("sim: lane %d stimulus shape differs from lane 0", j)
		}
		for i := range st.Inputs {
			if st.Inputs[i] == nil || first.Inputs[i] == nil {
				return nil, fmt.Errorf("sim: lane %d stimulus input %d is nil", j, i)
			}
			if st.Inputs[i].Name != first.Inputs[i].Name {
				return nil, fmt.Errorf("sim: lane %d drives %q where lane 0 drives %q",
					j, st.Inputs[i].Name, first.Inputs[i].Name)
			}
		}
	}
	ls := &LaneStimulus{Inputs: first.Inputs, N: len(stims), Depth: depth,
		Bits: make([][]uint64, depth), Wide: make([][][]uint64, depth)}
	for c := 0; c < depth; c++ {
		ls.Bits[c] = make([]uint64, len(first.Inputs))
		ls.Wide[c] = make([][]uint64, len(first.Inputs))
		for i, in := range first.Inputs {
			if in.Width == 1 {
				var w uint64
				for l, st := range stims {
					w |= (st.Rows[c][i] & 1) << uint(l)
				}
				ls.Bits[c][i] = w
				continue
			}
			vv := make([]uint64, 64)
			mask := in.Mask()
			for l, st := range stims {
				vv[l] = st.Rows[c][i] & mask
			}
			ls.Wide[c][i] = vv
		}
	}
	return ls, nil
}

// checkShape reports a lane count outside 1..64 or the first cycle whose
// rows do not match the stimulus: Bits and Wide hold Depth rows, each with
// one entry per input, and a wider-than-one-bit input's entry holds a value
// for every active lane. PackStimuli builds only stimuli that pass.
func (ls *LaneStimulus) checkShape() error {
	if ls.N < 1 || ls.N > 64 {
		return fmt.Errorf("sim: lane batch must hold 1..64 lanes, got %d", ls.N)
	}
	if len(ls.Bits) != ls.Depth || len(ls.Wide) != ls.Depth {
		return fmt.Errorf("sim: lane stimulus holds %d bit rows and %d wide rows for depth %d", len(ls.Bits), len(ls.Wide), ls.Depth)
	}
	for c := range ls.Depth {
		if len(ls.Bits[c]) != len(ls.Inputs) || len(ls.Wide[c]) != len(ls.Inputs) {
			return fmt.Errorf("sim: lane stimulus row %d holds %d bit and %d wide entries for %d inputs", c, len(ls.Bits[c]), len(ls.Wide[c]), len(ls.Inputs))
		}
		for i, in := range ls.Inputs {
			if in != nil && in.Width > 1 && len(ls.Wide[c][i]) < ls.N {
				return fmt.Errorf("sim: lane stimulus row %d input %q holds %d values for %d lanes", c, in.Name, len(ls.Wide[c][i]), ls.N)
			}
		}
	}
	return nil
}

// LaneStimulusAt demuxes lane l back to the concrete scalar stimulus it
// encodes, the input of the scalar run a lane must reproduce.
func (ls *LaneStimulus) LaneStimulusAt(l int) VecStimulus {
	rows := make([][]uint64, ls.Depth)
	for c := range rows {
		row := make([]uint64, len(ls.Inputs))
		for i, in := range ls.Inputs {
			if in.Width == 1 {
				row[i] = (ls.Bits[c][i] >> uint(l)) & 1
			} else {
				row[i] = ls.Wide[c][i][l]
			}
		}
		rows[c] = row
	}
	return VecStimulus{Inputs: ls.Inputs, Rows: rows}
}

// replicateLanes extends bit n-1 of a packed word into lanes n..63, so
// unused lanes always simulate the last real stimulus.
func replicateLanes(w uint64, n int) uint64 {
	if n >= 64 {
		return w
	}
	low := uint64(1)<<uint(n) - 1
	if w>>uint(n-1)&1 == 1 {
		return (w & low) | ^low
	}
	return w & low
}

// LaneTrace is the sampled history of a lane batch: row c holds the
// preponed sample for cycle c across all lanes. Like Trace it is not safe
// for concurrent use while compiled expressions are being evaluated.
type LaneTrace struct {
	Design *compile.Design
	plan   *Plan
	lp     *LanePlan
	n      int
	rows   []laneRow
	em     *lmach // lazy shared machine for compiled lane evaluation

	// fired[c][k] is the lane mask of domain k's ticks at the edge following
	// row c; nil for single-domain batches (every row ticks the one clock in
	// every lane).
	fired [][]uint64
}

// Len returns the number of sampled cycles.
func (t *LaneTrace) Len() int { return len(t.rows) }

// Lanes returns the number of active lanes.
func (t *LaneTrace) Lanes() int { return t.n }

// Mode returns the value domain the batch ran in.
func (t *LaneTrace) Mode() Mode {
	if t.lp.four {
		return FourState
	}
	return TwoState
}

// ActiveMask returns the word mask selecting the active lanes; callers must
// discard result bits outside it (inactive lanes replicate lane n-1).
func (t *LaneTrace) ActiveMask() uint64 {
	if t.n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(t.n) - 1
}

// Demux extracts lane l as an ordinary scalar trace, sharing the design's
// plan so the SVA checker evaluates it through the compiled path.
func (t *LaneTrace) Demux(l int) *Trace {
	p := t.plan
	tr := &Trace{Design: t.Design, plan: p}
	tr.reset(p.nslots, len(t.rows), t.Mode())
	demuxRow := func(row, bits []uint64, wide [][]uint64) {
		for s := range row {
			if wide[s] != nil {
				row[s] = wide[s][l]
			} else {
				row[s] = (bits[s] >> uint(l)) & 1
			}
		}
	}
	for c, lr := range t.rows {
		demuxRow(tr.rows[c], lr.bits, lr.wide)
		if t.lp.four {
			demuxRow(tr.unks[c], lr.ubits, lr.uwide)
		}
	}
	if t.fired != nil {
		tr.fired = make([]uint64, len(t.fired))
		for c, fm := range t.fired {
			var f uint64
			for k, w := range fm {
				if w>>uint(l)&1 != 0 {
					f |= 1 << uint(k)
				}
			}
			tr.fired[c] = f
		}
	}
	return tr
}

// CompiledLaneBool evaluates a boolean expression across all lanes at one
// sampled cycle: bit l of trueMask is set when lane l's value is true
// (nonzero and known), bit l of xMask when it sampled x (four-state
// batches only).
type CompiledLaneBool func(cycle int) (trueMask, xMask uint64, err error)

// CompileLaneBool returns a lane-batched evaluator for e over this trace,
// or nil when e is not one of the design's assertion expressions, which
// the lane plan lowers every one of.
func (t *LaneTrace) CompileLaneBool(e verilog.Expr) CompiledLaneBool {
	fn, ok := t.lp.sva[e]
	if !ok {
		return nil
	}
	if t.em == nil {
		t.em = traceLmach(t.lp, t.rows)
	}
	m := t.em
	return func(cycle int) (uint64, uint64, error) {
		m.laneRow, m.idx, m.err = t.rows[cycle], cycle, nil
		tw, xw := fn(m)
		return tw, xw, m.err
	}
}

// snapshotLaneRow copies a frame of lane state, both planes.
func snapshotLaneRow(r laneRow) laneRow {
	return laneRow{bits: slices.Clone(r.bits), ubits: slices.Clone(r.ubits),
		wide: cloneLanes(r.wide), uwide: cloneLanes(r.uwide)}
}

// cloneLanes deep-copies per-slot lane vectors into one backing array;
// nil stays nil.
func cloneLanes(wide [][]uint64) [][]uint64 {
	if wide == nil {
		return nil
	}
	n := 0
	for _, vv := range wide {
		if vv != nil {
			n++
		}
	}
	slab := make([]uint64, 64*n)
	out := make([][]uint64, len(wide))
	for s, vv := range wide {
		if vv != nil {
			out[s], slab = slab[:64:64], slab[64:]
			copy(out[s], vv)
		}
	}
	return out
}
