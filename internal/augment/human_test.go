package augment

import (
	"strings"
	"testing"

	"repro/internal/corpus"
)

// TestBuildHumanEval is the master validation of all 38 hand-crafted
// cases: golden passes non-vacuously, buggy fails, single-line diff.
func TestBuildHumanEval(t *testing.T) {
	samples, err := BuildHumanEval(Config{Seed: 5, RandomRuns: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 38 {
		t.Fatalf("got %d human cases, want 38 (as in the paper)", len(samples))
	}
	cases := corpus.HumanCases()
	seen := map[string]bool{}
	for i, s := range samples {
		if want := "human_" + cases[i].Name; s.ID != want {
			t.Errorf("sample %d is %s, want %s (case order)", i, s.ID, want)
		}
		if seen[s.ID] {
			t.Errorf("duplicate case id %s", s.ID)
		}
		seen[s.ID] = true
		if s.Origin != "human" {
			t.Errorf("%s: origin %q", s.ID, s.Origin)
		}
		if !strings.Contains(s.Logs, "failed assertion") {
			t.Errorf("%s: missing failure log", s.ID)
		}
		lines := strings.Split(s.BuggyCode, "\n")
		if got := strings.TrimSpace(lines[s.LineNo-1]); got != s.BuggyLine {
			t.Errorf("%s: line %d mismatch: %q vs %q", s.ID, s.LineNo, got, s.BuggyLine)
		}
	}
}

// TestBuildHumanEvalFirstFailure: with several failing cases checked
// concurrently, the error names the first failing case in case order.
func TestBuildHumanEvalFirstFailure(t *testing.T) {
	cases := corpus.HumanCases()[:8]
	for _, i := range []int{2, 6} {
		cases[i].Buggy = cases[i].Golden // the "bug" is not detected
	}
	_, err := buildHumanEval(cases, Config{Seed: 5, RandomRuns: 8, Workers: 4})
	if err == nil {
		t.Fatal("cases whose buggy design equals the golden were accepted")
	}
	if want := "human case " + cases[2].Name + ":"; !strings.HasPrefix(err.Error(), want) {
		t.Errorf("error %q, want it to start with %q", err, want)
	}
}

func TestHumanCasesCoverTaxonomy(t *testing.T) {
	syn := map[string]int{}
	cond := 0
	for _, hc := range corpus.HumanCases() {
		syn[hc.Syn]++
		if hc.IsCond {
			cond++
		}
	}
	for _, class := range []string{"Var", "Value", "Op"} {
		if syn[class] < 5 {
			t.Errorf("only %d human cases of class %s", syn[class], class)
		}
	}
	if cond < 5 {
		t.Errorf("only %d Cond human cases", cond)
	}
}

func TestHumanCasesDistinctDesigns(t *testing.T) {
	designs := map[string]bool{}
	for _, hc := range corpus.HumanCases() {
		m := hc.Golden[:strings.Index(hc.Golden, "(")]
		designs[m] = true
	}
	if len(designs) < 8 {
		t.Errorf("human cases span only %d designs, want >= 8", len(designs))
	}
}
