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

// TestScalarByteIdenticalAcrossCorpus is the formal driver's contract: a
// check, which reuses one sva.Checker and one stimulus row buffer across
// its runs, produces exactly the Result of a loop of one-shot checks on
// fresh checkers and fresh rows — same pass/fail, same counterexample
// trace row for row, same log text, same run count, same strategy label,
// same vacuity report — for every corpus golden and a sample of its
// mutants, in both value domains.
func TestScalarByteIdenticalAcrossCorpus(t *testing.T) {
	check := func(name, src string, fourState bool) {
		d, diags, err := compile.Compile(src)
		if err != nil || compile.HasErrors(diags) || d == nil {
			return
		}
		d1, _, _ := compile.Compile(src)
		opts := Options{Depth: 10, RandomRuns: 6, Seed: 11, FourState: fourState}
		one, errO := check(context.Background(), d1, opts, true)
		scalar, errS := Check(context.Background(), d, opts)
		if (errO == nil) != (errS == nil) {
			t.Fatalf("%s (fourState=%v): one-shot err=%v scalar err=%v", name, fourState, errO, errS)
		}
		if errS != nil {
			return
		}
		if fo, fs := fingerprint(one), fingerprint(scalar); !reflect.DeepEqual(fo, fs) {
			t.Fatalf("%s (fourState=%v): results diverge:\none-shot: %+v\nscalar:   %+v", name, fourState, fo, fs)
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

// TestLanesZeroSentinel: the deprecated Lanes field is ignored. Every
// value normalises to 0, so it never splits a cache key, and a check that
// sets it returns exactly the Result of one that does not.
func TestLanesZeroSentinel(t *testing.T) {
	lanes := []int{0, 1, -3, 64, 1000}
	for _, n := range lanes {
		if got := (Options{Lanes: n}).Normalized().Lanes; got != 0 {
			t.Fatalf("Lanes %d normalised to %d, want 0", n, got)
		}
	}

	b := corpus.EdgeDetect()
	var want resultFingerprint
	for i, n := range lanes {
		d, diags, err := compile.Compile(b.Source())
		if err != nil || compile.HasErrors(diags) {
			t.Fatal("fixture broken")
		}
		res, err := Check(context.Background(), d, Options{Depth: 8, RandomRuns: 4, Lanes: n})
		if err != nil {
			t.Fatalf("Lanes %d: %v", n, err)
		}
		if !res.Pass {
			t.Fatalf("Lanes %d: golden design failed: %s", n, res.Log)
		}
		if i == 0 {
			want = fingerprint(res)
		} else if got := fingerprint(res); !reflect.DeepEqual(got, want) {
			t.Fatalf("Lanes %d: result %+v, want %+v", n, got, want)
		}
	}
}
