package augment

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bugs"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/cot"
	"repro/internal/formal"
	"repro/internal/verify"
	"repro/internal/verilog"
)

// smallConfig keeps unit tests fast: few mutations, few random runs.
func smallConfig() Config {
	return Config{Seed: 3, MutationsPerDesign: 8, RandomRuns: 8}
}

func TestInjectAndValidateCounter(t *testing.T) {
	b := corpus.Counter(4, 9)
	var stats Stats
	cotGen := cot.NewGenerator(0.25, 1)
	samples, bugEntries, err := InjectAndValidate(b, smallConfig(), &stats, cotGen)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no assertion-failure samples from counter mutations")
	}
	if stats.MutantsTried == 0 || stats.MutantsAssertFail != len(samples) {
		t.Errorf("stats inconsistent: %+v", stats)
	}
	for _, s := range samples {
		if s.Logs == "" || !strings.Contains(s.Logs, "failed assertion") {
			t.Errorf("%s: missing failure log", s.ID)
		}
		if s.BuggyLine == s.FixedLine {
			t.Errorf("%s: buggy line equals fix", s.ID)
		}
		if s.LineNo <= 0 || s.Lines <= 0 {
			t.Errorf("%s: bad line metadata", s.ID)
		}
		if s.Origin != "machine" {
			t.Errorf("%s: origin %q", s.ID, s.Origin)
		}
		// The recorded buggy line must actually appear at LineNo in the code.
		lines := strings.Split(s.BuggyCode, "\n")
		if got := strings.TrimSpace(lines[s.LineNo-1]); got != s.BuggyLine {
			t.Errorf("%s: line %d is %q, recorded %q", s.ID, s.LineNo, got, s.BuggyLine)
		}
	}
	_ = bugEntries // counters may or may not yield functional-only bugs here
}

// TestGoldenFixSolves verifies the core dataset invariant: applying the
// recorded fix to the buggy code makes the design pass its assertions.
func TestGoldenFixSolves(t *testing.T) {
	b := corpus.Accu(8, 2)
	var stats Stats
	cotGen := cot.NewGenerator(0, 1)
	samples, _, err := InjectAndValidate(b, smallConfig(), &stats, cotGen)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("no samples")
	}
	for _, s := range samples[:min(4, len(samples))] {
		lines := strings.Split(s.BuggyCode, "\n")
		indent := lines[s.LineNo-1][:len(lines[s.LineNo-1])-len(strings.TrimLeft(lines[s.LineNo-1], " "))]
		lines[s.LineNo-1] = indent + s.FixedLine
		fixed := strings.Join(lines, "\n")
		d, diags, err := compile.Compile(fixed)
		if err != nil || compile.HasErrors(diags) {
			t.Fatalf("%s: fixed code does not compile: %v %s", s.ID, err, compile.FormatDiags(diags))
		}
		res, err := formal.Check(context.Background(), d, formal.Options{Seed: 9, Depth: s.CheckDepth, RandomRuns: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Pass {
			t.Errorf("%s: golden fix does not solve the failure:\n%s", s.ID, res.Log)
		}
	}
}

func TestRunPipelineSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run in -short mode")
	}
	out, err := Run(Config{Seed: 3, MutationsPerDesign: 4, RandomRuns: 6})
	if err != nil {
		t.Fatal(err)
	}
	st := out.Stats
	if st.FilteredIncomplete == 0 || st.FilteredTrivial == 0 || st.FilteredDuplicate == 0 {
		t.Errorf("stage 1 filters idle: %+v", st)
	}
	if st.CompileFailed == 0 {
		t.Error("no compile failures recorded (Verilog-PT needs them)")
	}
	ptFailures := 0
	for _, e := range out.VerilogPT {
		if !e.Compiles {
			ptFailures++
			if e.Analysis == "" {
				t.Errorf("%s: failing PT entry lacks analysis", e.Name)
			}
		}
	}
	if ptFailures != st.CompileFailed {
		t.Errorf("PT failures %d != stat %d", ptFailures, st.CompileFailed)
	}
	if len(out.SVABug)+len(out.SVAEvalMachine) == 0 {
		t.Fatal("no SVA samples produced")
	}
	// Train/test module disjointness.
	trainMods := map[string]bool{}
	for _, s := range out.SVABug {
		trainMods[s.Module] = true
	}
	for _, s := range out.SVAEvalMachine {
		if trainMods[s.Module] {
			t.Errorf("module %s leaks between train and test", s.Module)
		}
	}
	// CoT validity near the configured rate (allow slack for small n).
	if v := st.CoTValidity(); v < 0.55 || v > 0.95 {
		t.Errorf("CoT validity = %.3f, want ~0.75", v)
	}
	// Roughly 90/10 split by sample count (module granularity adds noise).
	frac := float64(len(out.SVABug)) / float64(len(out.SVABug)+len(out.SVAEvalMachine))
	if frac < 0.6 || frac > 0.98 {
		t.Errorf("train fraction = %.2f, want near 0.9", frac)
	}
}

// TestInjectAndValidateRunsOutsideCache pins the memory contract of Stage
// 2: a design leaves no verdict in the shared cache, its golden is
// compiled outside the service (verify.Compile counts no miss), and every
// distinct mutant text is checked exactly once, so duplicate mutants copy
// an outcome instead of recomputing it.
func TestInjectAndValidateRunsOutsideCache(t *testing.T) {
	cfg := Config{Seed: 3, MutationsPerDesign: 8, BinCaps: [5]int{8, 8, 8, 8, 8}, RandomRuns: 8}
	for _, tc := range []struct {
		name string
		bp   *corpus.Blueprint
		dups bool // the enumeration holds duplicate mutant texts
	}{
		{"counter", corpus.Counter(4, 9), true},
		{"shift-register", corpus.ShiftReg(3), false},
		{"hierarchical", corpus.HierFIFO(2), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.bp
			svc := verify.Default()
			lenBefore, before := svc.Len(), svc.Metrics()
			var stats Stats
			if _, _, err := InjectAndValidate(b, cfg, &stats, cot.NewGenerator(0.25, 1)); err != nil {
				t.Fatal(err)
			}
			grown, after := svc.Len()-lenBefore, svc.Metrics()
			if grown != 0 {
				t.Errorf("verdict cache grew by %d entries, want 0", grown)
			}

			// Rebuild the mutant list the pipeline checked and count its
			// distinct (text, value domain) pairs.
			muts := bugs.Enumerate(b.Module, 8)
			resets := bugs.EnumerateResets(b.Module)
			if stats.MutantsReset > 0 {
				muts = append(muts, resets...)
			}
			if len(b.Children) > 0 {
				muts = append(muts, bugs.EnumerateHier(b.Set(b.Module), 8)...)
			}
			if stats.MutantsTried != len(muts) {
				t.Fatalf("pipeline tried %d mutants, the rebuilt list holds %d", stats.MutantsTried, len(muts))
			}
			type mutKey struct {
				src  string
				four bool
			}
			distinct := map[mutKey]bool{}
			for _, mu := range muts {
				distinct[mutKey{b.SourceWith(mu.Mutant), mu.Syn == bugs.SynReset}] = true
			}
			if got := len(distinct) < len(muts); got != tc.dups {
				t.Fatalf("%d distinct of %d mutants: duplicates present = %v, want %v", len(distinct), len(muts), got, tc.dups)
			}
			// Besides the mutants: the golden's four-state check when the
			// design has reset mutants.
			want := len(distinct)
			if len(resets) > 0 {
				want++
			}
			if got := after.Misses - before.Misses; got != uint64(want) {
				t.Errorf("misses grew by %d, want %d (%d distinct mutants, %d reset mutants)",
					got, want, len(distinct), len(resets))
			}
			if hits := after.Hits - before.Hits; hits != 0 {
				t.Errorf("%d cache hits, want 0", hits)
			}
		})
	}
}

func TestIsTrivial(t *testing.T) {
	parse := func(src string) *verilog.Module {
		m, err := verilog.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if !isTrivial(parse("module m (input a, output y);\nassign y = a;\nendmodule")) {
		t.Error("feed-through should be trivial")
	}
	if !isTrivial(parse("module m (output y);\nassign y = 1'b1;\nendmodule")) {
		t.Error("constant should be trivial")
	}
	if isTrivial(parse("module m (input a, input b, output y);\nassign y = a & b;\nendmodule")) {
		t.Error("gate should not be trivial")
	}
	if isTrivial(parse("module m (input clk, output reg y);\nalways @(posedge clk) y <= !y;\nendmodule")) {
		t.Error("sequential logic should not be trivial")
	}
}

func TestDirectIndirectBothPresent(t *testing.T) {
	// Shift registers have indirect paths: a bug in an inner stage (not
	// named by any property) surfaces at q, which the p_delay property
	// checks — the Table I "Indirect" pattern.
	b := corpus.ShiftReg(3)
	var stats Stats
	cotGen := cot.NewGenerator(0, 1)
	samples, _, err := InjectAndValidate(b, Config{Seed: 3, RandomRuns: 8}, &stats, cotGen)
	if err != nil {
		t.Fatal(err)
	}
	direct, indirect := 0, 0
	for _, s := range samples {
		if s.IsDirect {
			direct++
		} else {
			indirect++
		}
	}
	if direct == 0 || indirect == 0 {
		t.Errorf("direct=%d indirect=%d; both axes must be populated", direct, indirect)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
