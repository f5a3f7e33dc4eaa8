package model

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/augment"
	"repro/internal/corpus"
	"repro/internal/cot"
	"repro/internal/dataset"
)

var fixtureOnce sync.Once
var fixtureTrain, fixtureEval []dataset.SVASample
var fixtureErr error

// trainingFixture builds (once) a small but real training set from three
// design families plus eval samples from a fourth, via the actual pipeline.
func trainingFixture(t *testing.T) (train []dataset.SVASample, evalS []dataset.SVASample) {
	t.Helper()
	fixtureOnce.Do(func() {
		cfg := augment.Config{Seed: 3, MutationsPerDesign: 14, RandomRuns: 8}
		var stats augment.Stats
		gen := cot.NewGenerator(0.25, 1)
		for _, b := range []*corpus.Blueprint{
			corpus.Counter(4, 9), corpus.Accu(8, 2), corpus.ClkDiv(4, 2),
		} {
			s, _, err := augment.InjectAndValidate(b, cfg, &stats, gen)
			if err != nil {
				fixtureErr = err
				return
			}
			fixtureTrain = append(fixtureTrain, s...)
		}
		var statsE augment.Stats
		s, _, err := augment.InjectAndValidate(corpus.Counter(3, 5), cfg, &statsE, gen)
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureEval = s
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	if len(fixtureTrain) < 10 || len(fixtureEval) < 3 {
		t.Fatalf("fixture too small: train=%d eval=%d", len(fixtureTrain), len(fixtureEval))
	}
	return fixtureTrain, fixtureEval
}

func TestTrainingStagesChangeBehaviour(t *testing.T) {
	train, evalS := trainingFixture(t)
	pt := []dataset.PTEntry{{Name: "x", Code: corpus.Counter(4, 9).Source(), Spec: "spec", Compiles: true}}

	base := New()
	sft := New()
	sft.Pretrain(pt)
	sft.SFT(train, nil)

	if base.Name() != "Base Model" || sft.Name() != "SFT Model" {
		t.Errorf("names: %q %q", base.Name(), sft.Name())
	}
	if !sft.LM.Trained() || !sft.Loc.Trained() || sft.Patterns.Len() == 0 {
		t.Fatal("SFT products missing")
	}

	// The SFT model must hit the golden answer far more often than base.
	correct := func(m *Model) int {
		hits := 0
		rng := rand.New(rand.NewSource(5))
		for i := range evalS {
			s := &evalS[i]
			for _, r := range m.Solve(ProblemOf(s), 5, 0.2, rng) {
				if Correct(r, s) {
					hits++
				}
			}
		}
		return hits
	}
	baseHits, sftHits := correct(base), correct(sft)
	if sftHits <= baseHits*2 {
		t.Errorf("SFT hits %d not clearly above base hits %d", sftHits, baseHits)
	}
}

func TestSolveDeterministic(t *testing.T) {
	train, evalS := trainingFixture(t)
	m := New()
	m.SFT(train, nil)
	p := ProblemOf(&evalS[0])
	a := m.Solve(p, 10, 0.2, rand.New(rand.NewSource(9)))
	b := m.Solve(p, 10, 0.2, rand.New(rand.NewSource(9)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("response %d differs between identical runs", i)
		}
	}
}

func TestSolveResponseFormat(t *testing.T) {
	train, evalS := trainingFixture(t)
	m := New()
	m.SFT(train, nil)
	resp := m.Solve(ProblemOf(&evalS[0]), 5, 0.2, rand.New(rand.NewSource(1)))
	if len(resp) != 5 {
		t.Fatalf("got %d responses, want 5", len(resp))
	}
	for _, r := range resp {
		if !r.FormatOK {
			t.Error("full-compliance model emitted malformed response")
		}
		if r.BugLine <= 0 || r.Fix == "" {
			t.Errorf("incomplete response: %+v", r)
		}
		js := r.JSON()
		if !strings.Contains(js, "\"bug_line\"") || !strings.Contains(js, "\"fix\"") {
			t.Errorf("JSON missing fields: %s", js)
		}
		if r.CoT == "" {
			t.Error("missing CoT")
		}
	}
}

func TestFormatCompliance(t *testing.T) {
	train, evalS := trainingFixture(t)
	m := New()
	m.SFT(train, nil)
	m.FormatCompliance = 0.5
	bad := 0
	resp := m.Solve(ProblemOf(&evalS[0]), 200, 0.2, rand.New(rand.NewSource(3)))
	for _, r := range resp {
		if !r.FormatOK {
			bad++
		}
	}
	if bad < 60 || bad > 140 {
		t.Errorf("malformed = %d/200, want ~100", bad)
	}
}

func TestDPOSharpens(t *testing.T) {
	train, _ := trainingFixture(t)
	m := New()
	m.SFT(train, nil)
	before := m.Sharpness
	stats := m.DPO(train[:20], 8, 0.2, 0.1, 7)
	if !m.HasDPO {
		t.Error("HasDPO not set")
	}
	if stats.Samples != 20 {
		t.Errorf("samples = %d", stats.Samples)
	}
	if stats.Challenging > 0 && m.Sharpness <= before {
		t.Error("sharpness did not increase despite challenging cases")
	}
	if m.Name() != "AssertSolver" {
		t.Errorf("name = %q", m.Name())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	train, evalS := trainingFixture(t)
	m := New()
	m.Pretrain([]dataset.PTEntry{{Name: "x", Code: corpus.Counter(4, 9).Source(), Compiles: true}})
	m.SFT(train, nil)
	m.DPO(train[:10], 6, 0.2, 0.1, 3)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := bytes.Clone(buf.Bytes())
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Re-saving the loaded model reproduces the file byte for byte, so
	// every table, its order and its totals survive the round trip.
	var resaved bytes.Buffer
	if err := loaded.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), saved) {
		t.Fatalf("re-saved model differs: %d bytes, want %d", resaved.Len(), len(saved))
	}
	if loaded.Name() != m.Name() || loaded.Patterns.Len() != m.Patterns.Len() ||
		loaded.Patterns.SpanLen() != m.Patterns.SpanLen() || loaded.Sharpness != m.Sharpness {
		t.Fatal("loaded model differs structurally")
	}
	// Behavioural equivalence: same responses for the same problem/seed.
	p := ProblemOf(&evalS[0])
	a := m.Solve(p, 8, 0.2, rand.New(rand.NewSource(4)))
	b := loaded.Solve(p, 8, 0.2, rand.New(rand.NewSource(4)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("response %d differs after reload", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("{not json")); err == nil {
		t.Error("want decode error")
	}
	if _, err := Load(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("want version error")
	}
}

func TestParseLogs(t *testing.T) {
	logs := "failed assertion accu.p_valid_out_assertion at cycle 5\n" +
		"  message: valid_out should be high\n" +
		"  sampled values at cycle 5: end_cnt=1 rst_n=1 valid_out=0\n"
	f := parseLogs(logs)
	if !f.HasFailure || f.AssertName != "p_valid_out_assertion" {
		t.Errorf("facts = %+v", f)
	}
	want := []string{"end_cnt", "rst_n", "valid_out"}
	if len(f.Signals) != 3 {
		t.Fatalf("signals = %v", f.Signals)
	}
	for i, s := range want {
		if f.Signals[i] != s {
			t.Errorf("signal %d = %q, want %q", i, f.Signals[i], s)
		}
	}
	empty := parseLogs("nothing to see")
	if empty.HasFailure {
		t.Error("phantom failure")
	}
}

func TestDepGraphCone(t *testing.T) {
	b := corpus.Accu(8, 2)
	g := buildDepGraph(b.Module)
	// valid_out is driven by end_cnt (via the if condition) which is driven
	// by count and valid_in.
	dist := g.coneDistances([]string{"valid_out"})
	if dist["valid_out"] != 0 {
		t.Errorf("valid_out dist = %d", dist["valid_out"])
	}
	if d, ok := dist["end_cnt"]; !ok || d != 1 {
		t.Errorf("end_cnt dist = %d (ok=%v), want 1", d, ok)
	}
	if d, ok := dist["count"]; !ok || d != 2 {
		t.Errorf("count dist = %d (ok=%v), want 2", d, ok)
	}
	if _, ok := dist["data_out"]; ok {
		t.Error("data_out must not be in valid_out's cone")
	}
}

func TestApplyFix(t *testing.T) {
	src := "module m;\n    wire a;\n    assign a = 1;\nendmodule"
	fixed, ok := ApplyFix(src, 3, "assign a = 1;", "assign a = 0;")
	if !ok || !strings.Contains(fixed, "    assign a = 0;") {
		t.Fatalf("ApplyFix = %q ok=%v", fixed, ok)
	}
	// Wrong line number but correct text: found by search.
	fixed, ok = ApplyFix(src, 99, "assign a = 1;", "assign a = 0;")
	if !ok || !strings.Contains(fixed, "assign a = 0;") {
		t.Error("text-search fallback failed")
	}
	// Totally bogus reference.
	if _, ok := ApplyFix(src, 99, "nonexistent line;", "x"); ok {
		t.Error("bogus fix applied")
	}
}

func TestNameAffinity(t *testing.T) {
	if nameAffinity("T_YELLOW", "T_GREEN") <= nameAffinity("T_YELLOW", "state") {
		t.Error("prefix affinity not detected")
	}
	if nameAffinity("s0", "s1") <= nameAffinity("s0", "count") {
		t.Error("short-name affinity not detected")
	}
}

func TestGenericEditsCoverFamilies(t *testing.T) {
	fills := []string{"alpha", "beta"}
	cases := []struct {
		line string
		want string
	}{
		{"if (!rst_n) count <= 0;", "if (rst_n) count <= 0;"},
		{"assign y = a & b;", "assign y = a | b;"},
		{"count <= count + 1;", "count <= count - 1;"},
		{"assign w = x == 4'd9;", "assign w = x == 4'd8;"},
		{"v1 <= alpha;", "v1 <= beta;"},
		{"timer <= T_RED;", "timer <= T_RED - 1;"},
		{"timer <= T_RED - 1;", "timer <= T_RED;"},
		{"if (a && b) q <= 1;", "if (a) q <= 1;"},
		{"q <= q;", "q <= !q;"},
	}
	for _, tc := range cases {
		found := false
		for _, g := range genericEdits(tc.line, tokenizeLine(tc.line), fills) {
			if g.fix == tc.want {
				found = true
				break
			}
		}
		if !found {
			var got []string
			for _, g := range genericEdits(tc.line, tokenizeLine(tc.line), fills) {
				got = append(got, g.fix)
			}
			t.Errorf("line %q: missing edit %q in %v", tc.line, tc.want, got)
		}
	}
}

func TestStructuralPriorSolver(t *testing.T) {
	_, evalS := trainingFixture(t)
	m := New()
	m.StructuralPrior = true
	m.PriorStrength = 1.2
	m.ReasonDepth = 24
	m.ReasonRuns = 3
	hits := 0
	rng := rand.New(rand.NewSource(5))
	for i := range evalS {
		s := &evalS[i]
		for _, r := range m.Solve(ProblemOf(s), 5, 0.2, rng) {
			if Correct(r, s) {
				hits++
			}
		}
	}
	if hits == 0 {
		t.Error("structural-prior solver never finds the golden fix")
	}
}
