package augment

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bugs"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/sva"
	"repro/internal/verify"
)

// BuildHumanEval validates and converts the 38 hand-crafted cases into
// SVA-Eval-Human samples. Every case is checked end to end: the golden
// design must pass its assertions non-vacuously, the buggy design must
// fail, and the bug must be a single-line edit.
func BuildHumanEval(cfg Config) ([]dataset.SVASample, error) {
	cfg = cfg.withDefaults()
	var out []dataset.SVASample
	for _, hc := range corpus.HumanCases() {
		s, err := buildHumanSample(hc, cfg)
		if err != nil {
			return nil, fmt.Errorf("human case %s: %w", hc.Name, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func buildHumanSample(hc corpus.HumanCase, cfg Config) (dataset.SVASample, error) {
	var zero dataset.SVASample
	seed := designSeed(cfg.Seed, hc.Name)
	opts := verify.Options{Seed: seed, Depth: hc.CheckDepth, RandomRuns: cfg.RandomRuns, Lanes: cfg.Lanes}
	svc := verify.Default()

	gv, err := svc.Run(context.Background(), hc.Golden, nil, opts)
	if err != nil {
		return zero, err
	}
	if gv.Status == verify.StatusCompileError {
		return zero, fmt.Errorf("golden does not compile: %v %s", gv.CompileErr, gv.Log)
	}
	if !gv.Passed() {
		return zero, fmt.Errorf("golden fails its assertions:\n%s", gv.Log)
	}
	if vac := gv.Vacuous(); len(vac) > 0 {
		return zero, fmt.Errorf("golden has vacuous assertions: %v", vac)
	}

	bv, err := svc.Run(context.Background(), hc.Buggy, nil, opts)
	if err != nil {
		return zero, err
	}
	if bv.Status == verify.StatusCompileError {
		return zero, fmt.Errorf("buggy does not compile: %v %s", bv.CompileErr, bv.Log)
	}
	if bv.Passed() {
		return zero, fmt.Errorf("buggy design passes all assertions (bug not detected)")
	}
	gd, bres := gv.Design, bv.Formal

	lineNo, goldenLine, buggyLine, nDiff := bugs.DiffLines(hc.Golden, hc.Buggy)
	if nDiff != 1 {
		return zero, fmt.Errorf("bug spans %d lines, want 1", nDiff)
	}

	isDirect := false
	if bres.Failure != nil {
		assertSigs := sva.AssertSignals(bres.Failure.Assert)
		for _, a := range affectedOfLine(buggyLine) {
			for _, s := range assertSigs {
				if a == s {
					isDirect = true
				}
			}
		}
	}

	return dataset.SVASample{
		ID:         "human_" + hc.Name,
		Module:     gd.Module.Name,
		Family:     "human",
		Spec:       hc.Spec,
		BuggyCode:  hc.Buggy,
		GoldenCode: hc.Golden,
		Logs:       bres.Log,
		LineNo:     lineNo,
		BuggyLine:  buggyLine,
		FixedLine:  goldenLine,
		Syn:        hc.Syn,
		IsCond:     hc.IsCond,
		IsDirect:   isDirect,
		Lines:      strings.Count(hc.Buggy, "\n"),
		CheckDepth: hc.CheckDepth,
		Origin:     "human",
	}, nil
}

// affectedOfLine extracts the assigned signal names from a single source
// line (text before <= or =, plus assignment targets after a condition).
func affectedOfLine(line string) []string {
	var out []string
	rest := line
	for {
		idx := strings.Index(rest, "<=")
		if idx < 0 {
			break
		}
		lhs := rest[:idx]
		if cut := strings.LastIndexAny(lhs, ")("); cut >= 0 {
			lhs = lhs[cut+1:]
		}
		fields := strings.Fields(lhs)
		if len(fields) > 0 {
			name := fields[len(fields)-1]
			name = strings.TrimFunc(name, func(r rune) bool {
				return !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9')
			})
			if i := strings.IndexByte(name, '['); i > 0 {
				name = name[:i]
			}
			if name != "" {
				out = append(out, name)
			}
		}
		rest = rest[idx+2:]
	}
	// assign statements: "assign x = ..."
	if strings.HasPrefix(strings.TrimSpace(line), "assign ") {
		t := strings.TrimSpace(line)[len("assign "):]
		if i := strings.IndexAny(t, "=["); i > 0 {
			out = append(out, strings.TrimSpace(t[:i]))
		}
	}
	return out
}
