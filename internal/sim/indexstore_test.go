package sim

import (
	"context"
	"testing"

	"repro/internal/compile"
)

// indexStoreSrc stores through a dynamic bit index whose value can exceed
// 63: q[i] nonblocking, r[i] blocking, and the minimized fuzz shape
// s <= 0; s[s] = d, where an out-of-range blocking store must leave the
// pending nonblocking write alone.
const indexStoreSrc = `module m (
    input clk,
    input [7:0] i,
    input d,
    output reg [7:0] q,
    output reg [7:0] r,
    output reg [7:0] s
);
    initial begin
        q = 8'd0;
        r = 8'd0;
        s = 8'd66;
    end
    always @(posedge clk) begin
        q[i] <= d;
        r[i] = d;
        s <= 8'd0;
        s[s] = d;
    end
endmodule
`

// indexStoreModel is the expected state after each cycle's edge: a store
// at bit idx >= 64 has no effect, like the index read that returns 0 there.
func indexStoreModel(is, ds []uint64) [][3]uint64 {
	setBit := func(cur, idx, d uint64) uint64 {
		if idx >= 64 {
			return cur
		}
		return ((cur &^ (1 << idx)) | (d&1)<<idx) & 0xff
	}
	q, r, s := uint64(0), uint64(0), uint64(66)
	out := [][3]uint64{{q, r, s}}
	for c := range is {
		q = setBit(q, is[c], ds[c])
		r = setBit(r, is[c], ds[c])
		if s >= 64 {
			s = 0
		} else {
			s = setBit(s, s, ds[c])
		}
		out = append(out, [3]uint64{q, r, s})
	}
	return out
}

// TestOutOfRangeIndexStoreIsNoOp holds every engine, in both value
// domains, to the no-effect rule for stores through an index >= 64. An
// engine that wraps the index to idx & 63 sets q to 4 on q[66] <= 1.
func TestOutOfRangeIndexStoreIsNoOp(t *testing.T) {
	ctx := context.Background()
	// Two lanes that disagree on which cycles store out of range, so the
	// lane engines must predicate the store per lane.
	lanes := [][2][]uint64{
		{{66, 2, 70, 3, 64, 7}, {1, 1, 1, 1, 0, 1}},
		{{1, 100, 5, 64, 2, 200}, {1, 1, 0, 1, 1, 0}},
	}
	for _, mode := range []Mode{TwoState, FourState} {
		d := mustCompile(t, indexStoreSrc)
		cols := []*compile.Signal{d.Signals["i"], d.Signals["d"]}
		check := func(engine string, lane int, tr *Trace) {
			t.Helper()
			want := indexStoreModel(lanes[lane][0], lanes[lane][1])
			if tr.Len() != len(want)-1 {
				t.Fatalf("%s %v lane %d: %d cycles, want %d", engine, mode, lane, tr.Len(), len(want)-1)
			}
			for c := 0; c < tr.Len(); c++ {
				for k, name := range []string{"q", "r", "s"} {
					got, _ := tr.Value4(c, name)
					if got != (V4{Val: want[c][k]}) {
						t.Errorf("%s %v lane %d cycle %d: %s = %+v, want %d", engine, mode, lane, c, name, got, want[c][k])
					}
				}
			}
		}
		var vecs []VecStimulus
		for l, st := range lanes {
			rows := make([][]uint64, len(st[0]))
			for c := range st[0] {
				rows[c] = []uint64{st[0][c], st[1][c]}
			}
			vec := VecStimulus{Inputs: cols, Rows: rows}
			vecs = append(vecs, vec)

			tr, err := RunVecCtx(ctx, d, vec, mode)
			if err != nil {
				t.Fatalf("RunVecCtx %v: %v", mode, err)
			}
			check("RunVecCtx", l, tr)
			if tr, err = RunReferenceCtx(ctx, mustCompile(t, indexStoreSrc), vec, mode); err != nil {
				t.Fatalf("RunReferenceCtx %v: %v", mode, err)
			}
			check("RunReferenceCtx", l, tr)
		}
		ls, err := PackStimuli(vecs)
		if err != nil {
			t.Fatal(err)
		}
		lt, err := RunLanesCtx(ctx, d, ls, mode)
		if err != nil {
			t.Fatalf("RunLanesCtx %v: %v", mode, err)
		}
		for l := range lanes {
			check("RunLanesCtx", l, lt.Demux(l))
		}
	}
}
