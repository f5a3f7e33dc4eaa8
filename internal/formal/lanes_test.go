package formal

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bugs"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/sva"
	"repro/internal/verilog"
)

// resultFingerprint flattens everything observable about a Result: the
// counterexample trace enters as every row's value and unknown planes and
// the fired mask of the edge after it.
type resultFingerprint struct {
	Pass     bool
	Strategy string
	Runs     int
	Log      string
	Vacuous  []string
	Failure  *sva.Failure
	Rows     [][]uint64
	Unks     [][]uint64
	Fired    []uint64
}

func fingerprint(r *Result) resultFingerprint {
	fp := resultFingerprint{Pass: r.Pass, Strategy: r.Strategy, Runs: r.Runs,
		Log: r.Log, Vacuous: r.VacuousAsserts, Failure: r.Failure}
	if tr := r.Trace; tr != nil {
		for c := 0; c < tr.Len(); c++ {
			fp.Rows = append(fp.Rows, tr.Row(c))
			fp.Unks = append(fp.Unks, tr.UnkRow(c))
			fp.Fired = append(fp.Fired, tr.Fired(c))
		}
	}
	return fp
}

// TestLanesByteIdenticalAcrossCorpus is the formal driver's contract: a
// lane-batched check and a scalar check, which reuses one sva.Checker and
// one stimulus row buffer across its runs, both produce exactly the Result
// of a loop of one-shot checks on fresh checkers and fresh rows — same
// pass/fail, same counterexample trace row for row, same log text, same
// run count, same strategy label, same vacuity report — for every corpus
// golden and a sample of its mutants, in both value domains.
func TestLanesByteIdenticalAcrossCorpus(t *testing.T) {
	check := func(name, src string, fourState bool) {
		d, diags, err := compile.Compile(src)
		if err != nil || compile.HasErrors(diags) || d == nil {
			return
		}
		dl, _, _ := compile.Compile(src)
		d1, _, _ := compile.Compile(src)
		opts := Options{Depth: 10, RandomRuns: 6, Seed: 11, FourState: fourState}
		one, errO := check(context.Background(), d1, opts, true)
		scalar, errS := Check(context.Background(), d, opts)
		opts.Lanes = 64
		lane, errL := Check(context.Background(), dl, opts)
		if (errO == nil) != (errS == nil) || (errS == nil) != (errL == nil) {
			t.Fatalf("%s (fourState=%v): one-shot err=%v scalar err=%v lane err=%v", name, fourState, errO, errS, errL)
		}
		if errS != nil {
			return
		}
		fo, fs, fl := fingerprint(one), fingerprint(scalar), fingerprint(lane)
		if !reflect.DeepEqual(fo, fs) {
			t.Fatalf("%s (fourState=%v): results diverge:\none-shot: %+v\nscalar:   %+v", name, fourState, fo, fs)
		}
		if !reflect.DeepEqual(fs, fl) {
			t.Fatalf("%s (fourState=%v): results diverge:\nscalar: %+v\nlane:   %+v", name, fourState, fs, fl)
		}
	}
	for _, bp := range corpus.Catalog() {
		check(bp.Name(), bp.Source(), false)
		check(bp.Name(), bp.Source(), true)
		for _, mu := range bugs.Enumerate(bp.Module, 3) {
			src := verilog.Print(mu.Mutant)
			check(bp.Name()+"/"+mu.Label(), src, false)
			check(bp.Name()+"/"+mu.Label(), src, true)
		}
	}
}

// TestLanesZeroSentinel: the zero value of Lanes must mean scalar mode —
// not a panic, not a zero-wide batch — and negatives and 1 normalise the
// same way, mirroring the NoRandom sentinel. Values beyond the word width
// clamp to 64.
func TestLanesZeroSentinel(t *testing.T) {
	for _, lanes := range []int{0, 1, -3} {
		if got := (Options{Lanes: lanes}).Normalized().Lanes; got != 0 {
			t.Fatalf("Lanes %d normalised to %d, want 0 (scalar)", lanes, got)
		}
	}
	if got := (Options{Lanes: 1000}).Normalized().Lanes; got != 64 {
		t.Fatalf("Lanes 1000 normalised to %d, want 64", got)
	}

	b := corpus.EdgeDetect()
	for _, lanes := range []int{0, 1, -3} {
		d, diags, err := compile.Compile(b.Source())
		if err != nil || compile.HasErrors(diags) {
			t.Fatal("fixture broken")
		}
		res, err := Check(context.Background(), d, Options{Depth: 8, RandomRuns: 4, Lanes: lanes})
		if err != nil {
			t.Fatalf("Lanes %d: %v", lanes, err)
		}
		if !res.Pass {
			t.Fatalf("Lanes %d: golden design failed: %s", lanes, res.Log)
		}
	}
}
