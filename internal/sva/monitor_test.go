package sva_test

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bugs"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/fuzz"
	"repro/internal/sim"
	"repro/internal/sva"
)

// tally counts what a differential run covered, so a test can require that
// it compared failures and multi-clock traces rather than passing
// vacuously.
type tally struct {
	traces, failing, multiClock, errs int
}

// monitorDiff compiles src and holds sva.Check and a reused sva.Checker to
// the oracle on up to maxStims random stimuli in both value domains.
// Programs that do not compile are out of scope.
func monitorDiff(t testing.TB, name, src string, seed int64, maxStims int, nt *tally) {
	t.Helper()
	d, diags, err := compile.Compile(src)
	if err != nil || compile.HasErrors(diags) || d == nil {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	depth := 2 + rng.Intn(16)
	stims := make([]sim.VecStimulus, 1+rng.Intn(maxStims))
	for i := range stims {
		stims[i] = randomStim(d, rng, depth)
	}
	ctx := context.Background()
	for _, mode := range []sim.Mode{sim.TwoState, sim.FourState} {
		chk := sva.NewChecker(d, mode)
		for i, st := range stims {
			o, err := chk.Check(ctx, st)
			tr := o.Trace
			if err != nil {
				// A simulation error fails both; a check error needs the trace.
				var simErr error
				if tr, simErr = sim.RunVecCtx(ctx, d, st, mode); simErr != nil {
					continue
				}
			}
			want, wantErr := oracleCheck(tr)
			sameResult(t, name, "Checker.Check", d, tr, o.Result, err, want, wantErr)
			got, gotErr := sva.Check(tr)
			sameResult(t, name, "Check", d, tr, got, gotErr, want, wantErr)
			if err == nil && o.Pass == want.Failed() {
				t.Fatalf("%s: mode %v stimulus %d: Checker pass=%v, oracle failed=%v", name, mode, i, o.Pass, want.Failed())
			}
			nt.traces++
			if wantErr != nil {
				nt.errs++
			} else if want.Failed() {
				nt.failing++
			}
			if d.MultiClock() {
				nt.multiClock++
			}
		}
	}
}

// sameResult requires a check to equal the oracle's: error text, failures
// in order, attempt counts, first failure and failure log.
func sameResult(t testing.TB, name, how string, d *compile.Design, tr *sim.Trace, got *sva.Result, gotErr error, want *sva.Result, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: %s error %v, oracle %v", name, how, gotErr, wantErr)
		}
		return
	}
	if len(got.Failures) != len(want.Failures) {
		t.Fatalf("%s: %s found %d failures, oracle %d:\n%v\n%v", name, how, len(got.Failures), len(want.Failures), got.Failures, want.Failures)
	}
	for i := range got.Failures {
		if !reflect.DeepEqual(got.Failures[i], want.Failures[i]) {
			t.Fatalf("%s: %s failure %d: %v, oracle %v", name, how, i, got.Failures[i], want.Failures[i])
		}
	}
	if !maps.Equal(got.Attempts, want.Attempts) {
		t.Fatalf("%s: %s attempts %v, oracle %v", name, how, got.Attempts, want.Attempts)
	}
	if g, w := got.FirstFailure(), want.FirstFailure(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: %s first failure %v, oracle %v", name, how, g, w)
	}
	if g, w := sva.FormatLog(d.Module.Name, tr, got.Failures), sva.FormatLog(d.Module.Name, tr, want.Failures); g != w {
		t.Fatalf("%s: %s log:\n%s\noracle log:\n%s", name, how, g, w)
	}
}

// randomStim drives every input port, clocks included, so multi-clock
// designs tick their domains in random patterns. A reset is held active
// for the first two cycles and glitched now and then.
func randomStim(d *compile.Design, rng *rand.Rand, depth int) sim.VecStimulus {
	st := sim.VecStimulus{Inputs: d.Inputs(false)}
	reset := d.Reset()
	for c := 0; c < depth; c++ {
		row := make([]uint64, len(st.Inputs))
		for i, in := range st.Inputs {
			row[i] = rng.Uint64() & in.Mask()
			if reset.Present && in.Name == reset.Name {
				row[i] = 0
				if active := c < 2 || rng.Intn(8) == 0; reset.ActiveLow != active {
					row[i] = 1
				}
			}
		}
		st.Rows = append(st.Rows, row)
	}
	return st
}

// FuzzMonitor holds the monitor to the oracles on generated programs: flat
// ones, x/z-saturated ones and multi-module ones (kind modulo 3), under
// random stimuli in both value domains.
func FuzzMonitor(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, kind uint8) {
		var src string
		switch kind % 3 {
		case 0:
			src = fuzz.GenerateSource(seed)
		case 1:
			src = fuzz.GenerateSourceXZ(seed)
		default:
			src = fuzz.GenerateHierSource(seed)
		}
		monitorDiff(t, src, src, seed, 6, &tally{})
	})
}

// TestMonitorMatchesOracleCorpus runs the differential over every catalog
// golden, every mutant bugs.Enumerate makes of it — multi-clock families
// included — and the fuzz regression corpus.
func TestMonitorMatchesOracleCorpus(t *testing.T) {
	var nt tally
	for i, bp := range corpus.Catalog() {
		monitorDiff(t, bp.Name(), bp.Source(), int64(i), 6, &nt)
		for j, mu := range bugs.Enumerate(bp.Module, 0) {
			monitorDiff(t, bp.Name()+"/"+mu.Label(), bp.SourceWith(mu.Mutant), int64(1000*i+j), 3, &nt)
		}
	}
	paths, err := filepath.Glob(filepath.Join("..", "fuzz", "testdata", "regressions", "*.v"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("fuzz regression corpus: %v (%d files)", err, len(paths))
	}
	for i, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		monitorDiff(t, filepath.Base(p), string(src), int64(i), 6, &nt)
	}
	t.Logf("compared %+v", nt)
	if nt.failing == 0 || nt.multiClock == 0 {
		t.Fatalf("the differential compared no failing or multi-clock runs: %+v", nt)
	}
}

// erringProps read $past, or an invalid part-select when an input (d or e)
// is 0: the select is an evaluation error whose text names the term's
// position, so attempts that err at different terms give different errors.
// Each property is checked in a module of its own, so no earlier
// assertion's error hides it.
var erringProps = []string{
	// Attempts err at different terms on the same tick.
	"a |-> ##1 (d != 0 ? $past(b) : b[64:64]) ##1 b || (e != 0 ? $past(b) : b[64:64])",
	// An attempt errs at its first term while the one started a tick
	// earlier still has a term to err at.
	"(d != 0 ? $past(b) : b[64:64]) |-> ##2 (e != 0 ? $past(a) : a[64:64])",
	// The disable condition errs; it is evaluated only on ticks where an
	// attempt has a term, so never before the first term's delay.
	"disable iff ((e != 0 ? $past(b) : b[64:64]) == b) ##2 a ##1 b |=> (d != 0 ? $past(a) : a[64:64])",
}

// TestMonitorErrorOrder: evaluation errors and their text match the
// oracle's, which stops at the first erring attempt in start order.
func TestMonitorErrorOrder(t *testing.T) {
	for i, prop := range erringProps {
		src := fmt.Sprintf(`
module erring (
    input clk,
    input a,
    input b,
    input [2:0] d,
    input [2:0] e
);
    p: assert property (@(posedge clk) %s);
endmodule
`, prop)
		var nt tally
		for seed := int64(0); seed < 200; seed++ {
			monitorDiff(t, fmt.Sprintf("property %d", i), src, seed, 6, &nt)
		}
		if nt.errs == 0 || nt.failing == 0 {
			t.Fatalf("property %d: no erring or no failing checks: %+v", i, nt)
		}
	}
}
