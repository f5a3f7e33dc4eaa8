// Corpus-wide differential pinning of the lane engine: every golden design
// and a sample of its mutants runs through (1) lane mode, (2) the scalar
// compiled plan, and (3) the reference interpreter, in both value domains,
// and all three must agree on traces, SVA verdicts and logs. This is the
// same discipline that pinned the plan to the interpreter in earlier PRs,
// extended to the third engine — it is deliberately in an external test
// package so it can drive internal/sva like a real caller.
package sim_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bugs"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/sim"
	"repro/internal/sva"
	"repro/internal/verilog"
)

// laneDiffStims builds n dense deterministic stimuli (reset-then-random)
// sharing one input list.
func laneDiffStims(d *compile.Design, seed int64, n, depth int) []sim.VecStimulus {
	rng := rand.New(rand.NewSource(seed))
	inputs := d.Inputs(true)
	reset := d.Reset()
	cols := append([]*compile.Signal(nil), inputs...)
	ri := -1
	if reset.Present {
		if sig := d.Signals[reset.Name]; sig != nil {
			ri = len(cols)
			cols = append(cols, sig)
		}
	}
	vecs := make([]sim.VecStimulus, n)
	for j := 0; j < n; j++ {
		rows := make([][]uint64, depth)
		for c := 0; c < depth; c++ {
			row := make([]uint64, len(cols))
			if ri >= 0 && reset.ActiveLow != (c < 2) {
				row[ri] = 1
			}
			for i, in := range inputs {
				row[i] = rng.Uint64() & in.Mask()
			}
			rows[c] = row
		}
		vecs[j] = sim.VecStimulus{Inputs: cols, Rows: rows}
	}
	return vecs
}

func sameTrace(t *testing.T, name, legA, legB string, a, b *sim.Trace, order []string) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: %s trace len %d vs %s %d", name, legA, a.Len(), legB, b.Len())
	}
	for c := 0; c < a.Len(); c++ {
		for _, sig := range order {
			ga, _ := a.Value4(c, sig)
			gb, _ := b.Value4(c, sig)
			if ga != gb {
				t.Fatalf("%s: cycle %d signal %s: %s=%+v %s=%+v", name, c, sig, legA, ga, legB, gb)
			}
		}
	}
}

func sameVerdicts(t *testing.T, name string, a, b *sva.Result) {
	t.Helper()
	if len(a.Failures) != len(b.Failures) {
		t.Fatalf("%s: %d failures vs %d", name, len(a.Failures), len(b.Failures))
	}
	for i := range a.Failures {
		p, r := a.Failures[i], b.Failures[i]
		if p.Assert.Name != r.Assert.Name || p.StartCycle != r.StartCycle ||
			p.FailCycle != r.FailCycle || p.Unknown != r.Unknown {
			t.Fatalf("%s: failure %d differs: %+v vs %+v", name, i, p, r)
		}
	}
	if len(a.Attempts) != len(b.Attempts) {
		t.Fatalf("%s: attempt sets differ: %v vs %v", name, a.Attempts, b.Attempts)
	}
	for k, v := range a.Attempts {
		if b.Attempts[k] != v {
			t.Fatalf("%s: attempts[%s]: %d vs %d", name, k, v, b.Attempts[k])
		}
	}
}

// assertLaneDifferential packs a ragged batch of stimuli, runs it through
// lane mode, and pins every lane against the scalar plan and the reference
// interpreter.
func assertLaneDifferential(t *testing.T, name, src string, seed int64, lanes int, mode sim.Mode) bool {
	t.Helper()
	d, diags, err := compile.Compile(src)
	if err != nil || compile.HasErrors(diags) || d == nil {
		return false // uncompilable mutants are out of scope
	}
	dRef, _, _ := compile.Compile(src)
	vecs := laneDiffStims(d, seed, lanes, 20)
	ls, err := sim.PackStimuli(vecs)
	if err != nil {
		t.Fatalf("%s: pack: %v", name, err)
	}
	lt, laneErr := sim.RunLanesCtx(context.Background(), d, ls, mode)

	// Scalar legs. Lane mode may error on a superset of the scalar runs
	// (predication evaluates untaken branches), so a lane error only
	// requires that the fallback path — per-lane scalar runs — works; but
	// a lane success with any scalar error is always a divergence.
	for l := 0; l < lanes; l++ {
		lname := name
		tr, scalarErr := sim.RunVecCtx(context.Background(), d, vecs[l], mode)
		ref, refErr := sim.RunReferenceCtx(context.Background(), dRef, vecs[l], mode)
		if (scalarErr == nil) != (refErr == nil) {
			t.Fatalf("%s: lane %d: plan err=%v, reference err=%v", lname, l, scalarErr, refErr)
		}
		if laneErr != nil {
			continue // fallback contract: scalar legs decide on their own
		}
		if scalarErr != nil {
			t.Fatalf("%s: lane %d: lane batch passed but scalar errs: %v", lname, l, scalarErr)
		}
		sameTrace(t, lname, "reference", "plan", ref, tr, d.Order)
		dm := lt.Demux(l)
		sameTrace(t, lname, "lane", "plan", dm, tr, d.Order)

		resScalar, errS := sva.Check(tr)
		resLane, errL := sva.Check(dm)
		resRef, errR := sva.Check(ref)
		if (errS == nil) != (errL == nil) || (errS == nil) != (errR == nil) {
			t.Fatalf("%s: lane %d: sva errs: plan=%v lane=%v reference=%v", lname, l, errS, errL, errR)
		}
		if errS != nil {
			continue
		}
		sameVerdicts(t, lname, resScalar, resLane)
		sameVerdicts(t, lname, resScalar, resRef)
		logS := sva.FormatLog(d.Module.Name, tr, resScalar.Failures)
		logL := sva.FormatLog(d.Module.Name, dm, resLane.Failures)
		if logS != logL {
			t.Fatalf("%s: lane %d: logs differ:\n--- plan\n%s--- lane\n%s", lname, l, logS, logL)
		}
	}
	if laneErr != nil {
		return false
	}

	// The batched SVA checker must agree with per-lane scalar checking on
	// which lanes failed and which attempted each assertion.
	lres, err := sva.CheckLanes(lt)
	if err != nil {
		return true // declined (an evaluation error): callers check per lane
	}
	var wantFailed uint64
	wantAttempted := map[string]uint64{}
	for l := 0; l < lanes; l++ {
		tr, err := sim.RunVecCtx(context.Background(), d, vecs[l], mode)
		if err != nil {
			t.Fatalf("%s: lane %d rerun: %v", name, l, err)
		}
		res, err := sva.Check(tr)
		if err != nil {
			return true
		}
		if res.Failed() {
			wantFailed |= 1 << uint(l)
		}
		for k := range res.Attempts {
			wantAttempted[k] |= 1 << uint(l)
		}
	}
	if lres.Failed != wantFailed {
		t.Fatalf("%s: CheckLanes failed mask %#x, scalar %#x", name, lres.Failed, wantFailed)
	}
	if len(lres.Attempted) != len(wantAttempted) {
		t.Fatalf("%s: CheckLanes attempted %v, scalar %v", name, lres.Attempted, wantAttempted)
	}
	for k, w := range wantAttempted {
		if lres.Attempted[k] != w {
			t.Fatalf("%s: CheckLanes attempted[%s]=%#x, scalar %#x", name, k, lres.Attempted[k], w)
		}
	}
	return true
}

// TestLaneDifferentialCorpus drives every corpus golden design — and a
// sample of single-site mutants of each — through all three engines in both
// value domains. Lane counts cycle through ragged widths so partial final
// words and the lane-replication rule get constant coverage.
func TestLaneDifferentialCorpus(t *testing.T) {
	raggedLanes := []int{64, 1, 7, 33, 64, 13}
	var laneRuns, total [2]int // per value domain
	for i, bp := range corpus.Catalog() {
		src := bp.Source()
		for mi, mode := range []sim.Mode{sim.TwoState, sim.FourState} {
			lanes := raggedLanes[(i+mi)%len(raggedLanes)]
			total[mode]++
			if assertLaneDifferential(t, bp.Name(), src, int64(1000+i), lanes, mode) {
				laneRuns[mode]++
			}
		}
		for j, mu := range bugs.Enumerate(bp.Module, 4) {
			name := bp.Name() + "/" + mu.Label()
			msrc := verilog.Print(mu.Mutant)
			for mi, mode := range []sim.Mode{sim.TwoState, sim.FourState} {
				lanes := raggedLanes[(i+j+mi)%len(raggedLanes)]
				total[mode]++
				if assertLaneDifferential(t, name, msrc, int64(7000+100*i+j), lanes, mode) {
					laneRuns[mode]++
				}
			}
		}
	}
	// The lane engine must actually cover the corpus, or this test silently
	// degrades into scalar-vs-reference only. The counts are exact: a
	// lowering change that sends a covered run to the scalar fallback fails
	// here even though every trace still matches.
	if want := [2]int{395, 395}; laneRuns != want || total != [2]int{415, 415} {
		t.Fatalf("lane engine covered %v of %v corpus runs (two-state, four-state), want %v of [415 415]",
			laneRuns, total, want)
	}
	t.Logf("lane engine covered %v of %v corpus runs (two-state, four-state)", laneRuns, total)
}
