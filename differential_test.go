package repro

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bugs"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/sim"
	"repro/internal/sva"
)

// diffStim builds a deterministic reset-then-random stimulus for a design:
// the reset column first, then every other input. A reset the input list
// also holds is driven twice per row; the later, random column wins.
func diffStim(d *compile.Design, seed int64, depth int) sim.VecStimulus {
	rng := rand.New(rand.NewSource(seed))
	inputs := d.Inputs(true)
	reset := d.Reset()
	var cols []*compile.Signal
	if reset.Present {
		cols = append(cols, d.Signals[reset.Name])
	}
	first := len(cols)
	cols = append(cols, inputs...)
	rows := make([][]uint64, depth)
	for c := range rows {
		row := make([]uint64, len(cols))
		if reset.Present && reset.ActiveLow != (c < 2) {
			row[0] = 1
		}
		for i, in := range inputs {
			row[first+i] = rng.Uint64() & in.Mask()
		}
		rows[c] = row
	}
	return sim.VecStimulus{Inputs: cols, Rows: rows}
}

// assertDifferential runs one design through the compiled slot-indexed plan
// (sim.RunVecCtx) and the reference interpreter (sim.RunReferenceCtx) and requires
// byte-identical traces and identical SVA verdicts. The reference trace
// carries no plan, so sva.Check on it also exercises the interpretive
// expression path against the compiled one.
func assertDifferential(t *testing.T, name, src string, seed int64) {
	t.Helper()
	d, diags, err := compile.Compile(src)
	if err != nil || compile.HasErrors(diags) || d == nil {
		return // uncompilable mutants are out of scope here
	}
	dRef, _, _ := compile.Compile(src)
	stim := diffStim(d, seed, 24)

	tr, errPlan := sim.RunVecCtx(context.Background(), d, stim, sim.TwoState)
	ref, errRef := sim.RunReferenceCtx(context.Background(), dRef, stim, sim.TwoState)
	if (errPlan == nil) != (errRef == nil) {
		t.Fatalf("%s: plan err=%v, reference err=%v", name, errPlan, errRef)
	}
	if errPlan != nil {
		return // both paths reject the design (e.g. combinational loop)
	}
	if tr.Len() != ref.Len() {
		t.Fatalf("%s: trace length %d vs %d", name, tr.Len(), ref.Len())
	}
	for c := 0; c < tr.Len(); c++ {
		for _, sigName := range d.Order {
			got, _ := tr.Value(c, sigName)
			want, _ := ref.Value(c, sigName)
			if got != want {
				t.Fatalf("%s: cycle %d signal %s: plan=%#x reference=%#x", name, c, sigName, got, want)
			}
		}
	}

	resPlan, errPlan := sva.Check(tr)
	resRef, errRef := sva.Check(ref)
	if (errPlan == nil) != (errRef == nil) {
		t.Fatalf("%s: sva plan err=%v, reference err=%v", name, errPlan, errRef)
	}
	if errPlan != nil {
		return
	}
	if len(resPlan.Failures) != len(resRef.Failures) {
		t.Fatalf("%s: %d failures on plan trace vs %d on reference", name, len(resPlan.Failures), len(resRef.Failures))
	}
	for i := range resPlan.Failures {
		p, r := resPlan.Failures[i], resRef.Failures[i]
		if p.Assert.Name != r.Assert.Name || p.StartCycle != r.StartCycle || p.FailCycle != r.FailCycle {
			t.Fatalf("%s: failure %d differs: plan=%+v reference=%+v", name, i, p, r)
		}
	}
	if len(resPlan.Attempts) != len(resRef.Attempts) {
		t.Fatalf("%s: attempt sets differ: %v vs %v", name, resPlan.Attempts, resRef.Attempts)
	}
	for k, v := range resPlan.Attempts {
		if resRef.Attempts[k] != v {
			t.Fatalf("%s: attempts[%s]: plan=%d reference=%d", name, k, v, resRef.Attempts[k])
		}
	}

	assertLaneLeg(t, name, d, stim, tr, resPlan)
}

// assertLaneLeg adds the third engine: the same stimulus packed into a
// two-lane batch (both lanes identical, so predication follows exactly the
// scalar branch structure and the lane engine must accept whatever the plan
// accepted) and demuxed back, byte-compared against the plan trace and its
// SVA verdicts.
func assertLaneLeg(t *testing.T, name string, d *compile.Design, stim sim.VecStimulus, tr *sim.Trace, resPlan *sva.Result) {
	t.Helper()
	ls, err := sim.PackStimuli([]sim.VecStimulus{stim, stim})
	if err != nil {
		t.Fatalf("%s: pack: %v", name, err)
	}
	lt, err := sim.RunLanesCtx(context.Background(), d, ls, sim.TwoState)
	if err != nil {
		// No lane plan at all is a legitimate fallback; a runtime error on a
		// uniform batch the plan simulated fine is a divergence.
		if !sim.LanesOK(d, sim.TwoState) {
			return
		}
		t.Fatalf("%s: lane run failed where plan passed: %v", name, err)
	}
	for l := 0; l < 2; l++ {
		dm := lt.Demux(l)
		if dm.Len() != tr.Len() {
			t.Fatalf("%s: lane %d trace len %d vs plan %d", name, l, dm.Len(), tr.Len())
		}
		for c := 0; c < tr.Len(); c++ {
			for _, sigName := range d.Order {
				got, _ := dm.Value(c, sigName)
				want, _ := tr.Value(c, sigName)
				if got != want {
					t.Fatalf("%s: lane %d cycle %d signal %s: lane=%#x plan=%#x", name, l, c, sigName, got, want)
				}
			}
		}
		resLane, err := sva.Check(dm)
		if err != nil {
			t.Fatalf("%s: lane %d sva: %v", name, l, err)
		}
		if len(resLane.Failures) != len(resPlan.Failures) {
			t.Fatalf("%s: lane %d: %d failures vs plan %d", name, l, len(resLane.Failures), len(resPlan.Failures))
		}
		for i := range resLane.Failures {
			p, r := resLane.Failures[i], resPlan.Failures[i]
			if p.Assert.Name != r.Assert.Name || p.StartCycle != r.StartCycle || p.FailCycle != r.FailCycle {
				t.Fatalf("%s: lane %d failure %d differs: lane=%+v plan=%+v", name, l, i, p, r)
			}
		}
		for k, v := range resPlan.Attempts {
			if resLane.Attempts[k] != v {
				t.Fatalf("%s: lane %d attempts[%s]: lane=%d plan=%d", name, l, k, resLane.Attempts[k], v)
			}
		}
	}
}

// TestDifferentialPlanVsReference drives every corpus golden design — and a
// sample of single-site mutants of each — through both simulator backends
// with a fixed seed and requires identical traces and SVA verdicts.
// Hierarchical blueprints reassemble each mutant with their child modules
// (SourceWith) and add a sample of the hierarchical mutation classes.
func TestDifferentialPlanVsReference(t *testing.T) {
	const mutantsPerDesign = 6
	for i, bp := range corpus.Catalog() {
		src := bp.Source()
		assertDifferential(t, bp.Name(), src, int64(1000+i))
		for j, mu := range bugs.Enumerate(bp.Module, mutantsPerDesign) {
			assertDifferential(t, bp.Name()+"/"+mu.Label(), bp.SourceWith(mu.Mutant), int64(5000+100*i+j))
		}
		if len(bp.Children) > 0 {
			for j, mu := range bugs.EnumerateHier(bp.Set(bp.Module), mutantsPerDesign) {
				assertDifferential(t, bp.Name()+"/"+mu.Label(), bp.SourceWith(mu.Mutant), int64(9000+100*i+j))
			}
		}
	}
}

// TestHierarchicalDifferentialBothDomains holds every hierarchical corpus
// design — flattened through elaboration — byte-identical across the
// compiled plan, the lane engine, and the reference interpreter in both
// value domains, with both planes (Val and Unk) compared on every row.
func TestHierarchicalDifferentialBothDomains(t *testing.T) {
	hier := 0
	for i, bp := range corpus.Catalog() {
		if len(bp.Children) == 0 {
			continue
		}
		hier++
		src := bp.Source()
		d, diags, err := compile.Compile(src)
		if err != nil || compile.HasErrors(diags) || d == nil {
			t.Fatalf("%s: golden does not compile: %v %s", bp.Name(), err, compile.FormatDiags(diags))
		}
		stim := diffStim(d, int64(3000+i), 32)
		for _, mode := range []sim.Mode{sim.TwoState, sim.FourState} {
			dRef, _, _ := compile.Compile(src)
			tr, err := sim.RunVecCtx(context.Background(), d, stim, mode)
			if err != nil {
				t.Fatalf("%s %v: plan: %v", bp.Name(), mode, err)
			}
			ref, err := sim.RunReferenceCtx(context.Background(), dRef, stim, mode)
			if err != nil {
				t.Fatalf("%s %v: reference: %v", bp.Name(), mode, err)
			}
			if tr.Len() != ref.Len() {
				t.Fatalf("%s %v: trace length %d vs %d", bp.Name(), mode, tr.Len(), ref.Len())
			}
			for c := 0; c < tr.Len(); c++ {
				for _, sigName := range d.Order {
					got, _ := tr.Value4(c, sigName)
					want, _ := ref.Value4(c, sigName)
					if got != want {
						t.Fatalf("%s %v: cycle %d signal %s: plan=%#x/unk %#x reference=%#x/unk %#x",
							bp.Name(), mode, c, sigName, got.Val, got.Unk, want.Val, want.Unk)
					}
				}
			}
			ls, err := sim.PackStimuli([]sim.VecStimulus{stim, stim})
			if err != nil {
				t.Fatalf("%s %v: pack: %v", bp.Name(), mode, err)
			}
			lt, err := sim.RunLanesCtx(context.Background(), d, ls, mode)
			if err != nil {
				if !sim.LanesOK(d, mode) {
					continue
				}
				t.Fatalf("%s %v: lane run failed where plan passed: %v", bp.Name(), mode, err)
			}
			for l := 0; l < 2; l++ {
				dm := lt.Demux(l)
				if dm.Len() != tr.Len() {
					t.Fatalf("%s %v: lane %d trace len %d vs plan %d", bp.Name(), mode, l, dm.Len(), tr.Len())
				}
				for c := 0; c < tr.Len(); c++ {
					for _, sigName := range d.Order {
						got, _ := dm.Value4(c, sigName)
						want, _ := tr.Value4(c, sigName)
						if got != want {
							t.Fatalf("%s %v: lane %d cycle %d signal %s: lane=%#x/unk %#x plan=%#x/unk %#x",
								bp.Name(), mode, l, c, sigName, got.Val, got.Unk, want.Val, want.Unk)
						}
					}
				}
			}
		}
	}
	if hier < 3 {
		t.Fatalf("only %d hierarchical corpus designs; want at least 3", hier)
	}
}
