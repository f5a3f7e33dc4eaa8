package fuzz

import (
	"math/rand"

	"repro/internal/compile"
	"repro/internal/lint"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// ---------------------------------------------------------------------------
// Oracle 4: lint consistency
// ---------------------------------------------------------------------------

// LintConsistency holds the static analyzer's claims against real runs of
// the reference interpreter. Programs that do not compile pass vacuously
// (lint has no verdict on them). On a compiling program it checks:
//
//   - the analyzer does not panic ("panic");
//   - the canonical verdict is identical after a print→parse round trip of
//     the compiled module ("verdict-drift") — findings are structural, so
//     reprinting must not change them;
//   - every lint-proved constant signal holds exactly its proved value,
//     fully known, on every row of a random reference trace in both value
//     domains ("constant");
//   - every lint-proved dead branch polarity stays unexecuted in the
//     branch coverage of those runs ("dead-branch");
//   - every never-reset register starts fully x at cycle 0 of the
//     four-state run ("never-reset").
//
// Simulation errors (e.g. a comb fixpoint that never settles) skip the
// dynamic checks for that value domain: with no trace there is no
// disagreement to report.
func LintConsistency(src string, seed int64) error {
	d, diags, err := compile.Compile(src)
	if err != nil || compile.HasErrors(diags) || d == nil {
		return nil
	}
	res, v := lintGuarded(src, d)
	if v != nil {
		return v
	}

	printed := verilog.Print(d.Module)
	d2, diags2, err2 := compile.Compile(printed)
	if err2 != nil || compile.HasErrors(diags2) || d2 == nil {
		return violation("lint", "reprint-compile", src,
			"source compiles but its reprint does not: err=%v diags=%s", err2, compile.FormatDiags(diags2))
	}
	res2, v := lintGuarded(src, d2)
	if v != nil {
		return v
	}
	if w1, w2 := lint.Verdict(res.Findings), lint.Verdict(res2.Findings); w1 != w2 {
		return violation("lint", "verdict-drift", src,
			"verdict changed across print/parse round trip:\n--- original ---\n%s--- reprint ---\n%s", w1, w2)
	}

	rng := rand.New(rand.NewSource(seed))
	depth := 6 + rng.Intn(12)
	stim := randomStimulus(d, rng, depth)

	for _, mode := range []sim.Mode{sim.TwoState, sim.FourState} {
		tr, cov, err := sim.RunReferenceBranches(d, stim, mode)
		if err != nil {
			continue
		}
		for _, name := range d.Order {
			want, ok := res.Consts[name]
			if !ok {
				continue
			}
			for c := 0; c < tr.Len(); c++ {
				got, _ := tr.Value4(c, name)
				if got.Unk != 0 || got.Val != want {
					return violation("lint", "constant", src,
						"lint proved %s constant %#x but %s cycle %d has %#x/unk %#x",
						name, want, mode, c, got.Val, got.Unk)
				}
			}
		}
		for _, db := range res.Dead {
			bit, side := sim.BranchThen, "then"
			if !db.Then {
				bit, side = sim.BranchElse, "else"
			}
			if cov[db.Pos]&bit != 0 {
				return violation("lint", "dead-branch", src,
					"lint proved the %s branch of the if at %s dead, but %s execution took it",
					side, db.Pos, mode)
			}
		}
		if mode == sim.FourState && tr.Len() > 0 {
			for _, name := range res.NeverReset {
				got, _ := tr.Value4(0, name)
				if mask := d.Signals[name].Mask(); got.Unk != mask {
					return violation("lint", "never-reset", src,
						"lint flagged %s never-reset but it starts %#x/unk %#x (want all-x mask %#x)",
						name, got.Val, got.Unk, mask)
				}
			}
		}
	}
	return nil
}

// lintGuarded runs lint.Analyze with a panic guard: the analyzer crashing
// on a program the compiler accepts is itself an oracle violation.
func lintGuarded(src string, d *compile.Design) (res lint.Result, v *Violation) {
	defer func() {
		if r := recover(); r != nil {
			v = violation("lint", "panic", src, "lint.Analyze panicked: %v", r)
		}
	}()
	return lint.Analyze(d), nil
}
