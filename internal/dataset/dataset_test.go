package dataset

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func sample(module string, lines int, syn string, cond, direct bool) SVASample {
	return SVASample{
		ID: module + "_x", Module: module, Lines: lines,
		Syn: syn, IsCond: cond, IsDirect: direct,
		BuggyLine: "a <= b;", FixedLine: "a <= c;", LineNo: 3,
		Spec: "spec", BuggyCode: "code", Logs: "logs", Origin: "machine",
	}
}

func TestSplitByModuleDisjoint(t *testing.T) {
	var samples []SVASample
	names := []string{"m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8", "m9", "m10"}
	for _, n := range names {
		for i := 0; i < 5; i++ {
			samples = append(samples, sample(n, 30, "Op", false, true))
		}
	}
	train, test := splitSamples(samples, 0.9, 7)
	if len(train)+len(test) != len(samples) {
		t.Fatalf("split lost samples: %d + %d != %d", len(train), len(test), len(samples))
	}
	if len(test) == 0 {
		t.Fatal("empty test set")
	}
	trainMods := map[string]bool{}
	for _, s := range train {
		trainMods[s.Module] = true
	}
	for _, s := range test {
		if trainMods[s.Module] {
			t.Fatalf("module %s in both sets", s.Module)
		}
	}
}

func TestSplitKeepsTestModulePerBin(t *testing.T) {
	// Even with trainFrac 1.0 rounding, each bin keeps >= 1 test module.
	var samples []SVASample
	for _, n := range []string{"a", "b", "c"} {
		samples = append(samples, sample(n, 30, "Op", false, true))
	}
	for _, n := range []string{"d", "e"} {
		samples = append(samples, sample(n, 130, "Var", true, false))
	}
	_, test := splitSamples(samples, 0.95, 1)
	bins := map[int]bool{}
	for _, s := range test {
		bins[s.BinIndex()] = true
	}
	if !bins[0] || !bins[2] {
		t.Errorf("test bins covered: %v", bins)
	}
}

func TestSplitDeterministic(t *testing.T) {
	var samples []SVASample
	for _, n := range []string{"m1", "m2", "m3", "m4", "m5"} {
		samples = append(samples, sample(n, 40, "Op", false, true))
	}
	t1, _ := splitSamples(samples, 0.8, 9)
	t2, _ := splitSamples(samples, 0.8, 9)
	if len(t1) != len(t2) {
		t.Fatal("split not deterministic")
	}
	for i := range t1 {
		if t1[i].ID != t2[i].ID {
			t.Fatal("split order not deterministic")
		}
	}
}

func TestTypeLabels(t *testing.T) {
	s := sample("m", 30, "Op", true, false)
	labels := s.TypeLabels()
	want := []string{"Indirect", "Op", "Cond"}
	if len(labels) != 3 {
		t.Fatalf("labels = %v", labels)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Errorf("label %d = %q, want %q", i, labels[i], want[i])
		}
	}
}

func TestDistribute(t *testing.T) {
	samples := []SVASample{
		sample("a", 30, "Op", true, true),
		sample("b", 30, "Value", false, false),
		sample("c", 170, "Var", false, true),
	}
	d := Distribute(samples)
	if d.Total != 3 {
		t.Errorf("total = %d", d.Total)
	}
	if d.ByBin[0] != 2 || d.ByBin[3] != 1 {
		t.Errorf("bins = %v", d.ByBin)
	}
	if d.ByType["Direct"] != 2 || d.ByType["Indirect"] != 1 ||
		d.ByType["Cond"] != 1 || d.ByType["Non_cond"] != 2 {
		t.Errorf("types = %v", d.ByType)
	}
}

func TestFormatTableII(t *testing.T) {
	train := []SVASample{sample("a", 30, "Op", true, true)}
	evalS := []SVASample{sample("b", 170, "Var", false, false)}
	out := FormatTableII(train, evalS)
	for _, want := range []string{"Length Interval", "SVA-Bug", "SVA-Eval", "Direct", "Non_cond"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestQuestionAnswerForms(t *testing.T) {
	s := sample("m", 30, "Op", false, true)
	s.CoT = "Step 1: reasoning."
	s.CoTValid = true
	q := s.Question(true)
	if !strings.Contains(q, "step by step") {
		t.Error("step-by-step marker missing")
	}
	if !strings.Contains(s.Question(false), "please give me a solution.") {
		t.Error("plain question malformed")
	}
	a := s.Answer()
	if !strings.Contains(a, "Buggy line 3") || !strings.Contains(a, "Reasoning:") {
		t.Errorf("answer = %q", a)
	}
	s.CoTValid = false
	if strings.Contains(s.Answer(), "Reasoning:") {
		t.Error("invalid CoT leaked into answer")
	}
}

func TestPTEntryText(t *testing.T) {
	good := PTEntry{Name: "m", Code: "module m; endmodule", Spec: "the spec", Compiles: true}
	if !strings.Contains(good.Text(), "compiles successfully") {
		t.Error("good entry text")
	}
	bad := PTEntry{Name: "m", Code: "module m;", Spec: "s", Compiles: false, Analysis: "missing endmodule"}
	txt := bad.Text()
	if !strings.Contains(txt, "failed to compile") || !strings.Contains(txt, "missing endmodule") {
		t.Errorf("bad entry text = %q", txt)
	}
}

func TestBugEntryForms(t *testing.T) {
	e := BugEntry{Name: "n", Spec: "s", BuggyCode: "c", BuggyLine: "x <= 1;", FixedLine: "x <= 0;", LineNo: 4}
	if !strings.Contains(e.Question(), "contains a bug") {
		t.Error("question malformed")
	}
	if !strings.Contains(e.Answer(), "Buggy line 4") {
		t.Error("answer malformed")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	samples := []SVASample{sample("m1", 30, "Op", true, false), sample("m2", 80, "Var", false, true)}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, samples); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSamples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != samples[0] || back[1] != samples[1] {
		t.Fatal("round trip mismatch")
	}
}

// TestSplitProperty uses testing/quick: for any sample population, the
// split never loses or duplicates samples and keeps modules disjoint.
func TestSplitProperty(t *testing.T) {
	f := func(moduleIDs []uint8, seed int64) bool {
		if len(moduleIDs) == 0 {
			return true
		}
		var samples []SVASample
		for i, id := range moduleIDs {
			name := string(rune('a' + int(id)%20))
			lines := 10 + int(id)*3
			samples = append(samples, SVASample{
				ID: name + "_" + string(rune('0'+i%10)), Module: name, Lines: lines,
				Syn: "Op", Origin: "machine",
			})
		}
		train, test := splitSamples(samples, 0.9, seed)
		if len(train)+len(test) != len(samples) {
			return false
		}
		trainMods := map[string]bool{}
		for _, s := range train {
			trainMods[s.Module] = true
		}
		for _, s := range test {
			if trainMods[s.Module] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
