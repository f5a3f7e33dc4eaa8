package sva

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bugs"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/sim"
)

// batchStims builds up to 64 stimuli of depth rows the way a bounded check
// drives a design: the reset asserted for two rows and then released, the
// clocks of a multi-clock design toggling with period 2^(j+1), and every
// other input driven by directed patterns, then constant vectors, then
// seeded random values.
func batchStims(d *compile.Design, depth int, rng *rand.Rand) []sim.VecStimulus {
	inputs := d.Inputs(false)
	reset := d.Reset()
	clock := map[string]int{} // domain clock -> schedule index
	if d.MultiClock() {
		for _, cd := range d.Domains {
			if _, ok := clock[cd.Signal]; !ok {
				clock[cd.Signal] = len(clock)
			}
		}
	}
	build := func(data func(i int, in *compile.Signal, c int) uint64) sim.VecStimulus {
		st := sim.VecStimulus{Inputs: inputs, Rows: make([][]uint64, depth)}
		for c := range st.Rows {
			row := make([]uint64, len(inputs))
			for i, in := range inputs {
				j, isClock := clock[in.Name]
				switch {
				case reset.Present && in.Name == reset.Name:
					if active := c < 2; reset.ActiveLow != active {
						row[i] = 1
					}
				case isClock:
					row[i] = uint64(c) >> uint(j) & 1
				default:
					row[i] = data(i, in, c) & in.Mask()
				}
			}
			st.Rows[c] = row
		}
		return st
	}
	stims := []sim.VecStimulus{
		build(func(int, *compile.Signal, int) uint64 { return 0 }),
		build(func(_ int, in *compile.Signal, _ int) uint64 { return in.Mask() }),
		build(func(_ int, _ *compile.Signal, c int) uint64 { return uint64(c) }),
		build(func(_ int, _ *compile.Signal, c int) uint64 { return -uint64(c & 1) }),
		build(func(i int, _ *compile.Signal, c int) uint64 { return uint64(1) << uint(c+i) }),
	}
	for code := range uint64(16) {
		stims = append(stims, build(func(i int, _ *compile.Signal, _ int) uint64 { return code >> uint(i%4) }))
	}
	for len(stims) < 64 {
		stims = append(stims, build(func(int, *compile.Signal, int) uint64 { return rng.Uint64() }))
	}
	return stims
}

// batchTally counts what TestBatchMatchesCheckerCorpus compared, so it
// cannot pass without comparing failing lanes of packed batches.
type batchTally struct {
	packed, scalar, lanes, failingPacked, multiClock int
}

// batchDiff checks stims in batches whose sizes cycle through sizes from
// index off, and holds every lane's outcome to a fresh scalar checker's
// Check of the same stimulus.
func batchDiff(t *testing.T, name string, d *compile.Design, stims []sim.VecStimulus, sizes []int, off int, mode sim.Mode, nt *batchTally) {
	t.Helper()
	ctx := context.Background()
	chk := NewChecker(d, mode)
	for k := 0; len(stims) > 0; k++ {
		n := min(sizes[(off+k)%len(sizes)], len(stims))
		batch := stims[:n]
		stims = stims[n:]
		b, err := chk.Batch(ctx, batch)
		if err != nil {
			t.Fatalf("%s %v: batch: %v", name, mode, err)
		}
		if b.Packed {
			nt.packed++
		} else {
			nt.scalar++
		}
		for l, st := range batch {
			got, gotErr := b.Lane(l)
			want, wantErr := NewChecker(d, mode).Check(ctx, st)
			where := name + " " + mode.String() + " lane"
			if gotErr != nil || wantErr != nil {
				if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
					t.Fatalf("%s %d: batch err %v, scalar err %v", where, l, gotErr, wantErr)
				}
				continue
			}
			nt.lanes++
			if got.Pass != want.Pass {
				t.Fatalf("%s %d: batch pass %v, scalar pass %v", where, l, got.Pass, want.Pass)
			}
			for _, a := range d.Asserts {
				if g, w := got.Attempted(a.Name), want.Result.Attempts[a.Name] > 0; g != w {
					t.Fatalf("%s %d: %s attempted %v, scalar %v", where, l, a.Name, g, w)
				}
			}
			if got.Result != nil {
				if !reflect.DeepEqual(got.Result.Failures, want.Result.Failures) || !maps.Equal(got.Result.Attempts, want.Result.Attempts) {
					t.Fatalf("%s %d: failures %v attempts %v, scalar %v %v", where, l,
						got.Result.Failures, got.Result.Attempts, want.Result.Failures, want.Result.Attempts)
				}
				if g, w := FormatLog(d.Module.Name, got.Trace, got.Result.Failures), FormatLog(d.Module.Name, want.Trace, want.Result.Failures); g != w {
					t.Fatalf("%s %d: log\n%s\nscalar log\n%s", where, l, g, w)
				}
			}
			if got.Trace != nil {
				sameRows(t, where, l, got.Trace, want.Trace)
			}
			if b.Packed {
				sameRows(t, where+" (demuxed)", l, b.lt.Demux(l), want.Trace)
				if !got.Pass {
					nt.failingPacked++
				}
			}
		}
	}
	if d.MultiClock() {
		nt.multiClock++
	}
}

// sameRows requires two traces to hold the same rows, unknown planes and
// fired masks.
func sameRows(t *testing.T, where string, l int, got, want *sim.Trace) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s %d: trace of %d rows, scalar %d", where, l, got.Len(), want.Len())
	}
	for c := range got.Len() {
		if !reflect.DeepEqual(got.Row(c), want.Row(c)) || !reflect.DeepEqual(got.UnkRow(c), want.UnkRow(c)) || got.Fired(c) != want.Fired(c) {
			t.Fatalf("%s %d: row %d is %v/%v fired %#x, scalar %v/%v fired %#x", where, l, c,
				got.Row(c), got.UnkRow(c), got.Fired(c), want.Row(c), want.UnkRow(c), want.Fired(c))
		}
	}
}

// TestBatchMatchesCheckerCorpus is the lane-versus-scalar contract of
// Checker.Batch: over every catalog golden and a sample of its mutants, in
// both value domains, batches of 1 to 64 directed, constant and random
// stimuli give each lane the outcome a fresh scalar Check of its stimulus
// gives — verdict, attempted set, failures, log text and trace rows,
// whether the lane engine or the scalar fallback decided the batch.
func TestBatchMatchesCheckerCorpus(t *testing.T) {
	sizes := []int{64, 1, 7, 33, 13}
	var nt batchTally
	for i, bp := range corpus.Catalog() {
		srcs := []string{bp.Source()}
		for j, mu := range bugs.Enumerate(bp.Module, 0) {
			if j%7 == i%7 && len(srcs) < 6 {
				srcs = append(srcs, bp.SourceWith(mu.Mutant))
			}
		}
		for j, src := range srcs {
			d, diags, err := compile.Compile(src)
			if err != nil || compile.HasErrors(diags) {
				continue
			}
			rng := rand.New(rand.NewSource(int64(100*i + j)))
			stims := batchStims(d, bp.CheckDepth(12), rng)
			for _, mode := range []sim.Mode{sim.TwoState, sim.FourState} {
				batchDiff(t, fmt.Sprintf("%s/%d", bp.Name(), j), d, stims, sizes, i+j, mode, &nt)
			}
		}
	}
	t.Logf("compared %+v", nt)
	if nt.packed == 0 || nt.scalar == 0 || nt.failingPacked == 0 || nt.multiClock == 0 {
		t.Fatalf("the comparison covered no packed, scalar, failing packed or multi-clock batches: %+v", nt)
	}
}
