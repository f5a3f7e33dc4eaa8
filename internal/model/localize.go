package model

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/verilog"
)

// lineContext carries everything known about one candidate line when the
// localiser scores it.
type lineContext struct {
	Text      string
	Toks      []verilog.Token // Text lexed once, for every later use
	No        int             // 1-based
	Assigned  []string
	ConeDist  int // min driver-graph distance of an assigned signal to the assertion signals; -1 unknown
	Mentions  int // how many assertion signals the line mentions directly
	Surprisal float64
	HasLM     bool
}

// features maps a line context to its discrete feature set.
func (lc *lineContext) features() []string {
	var fs []string
	t := strings.TrimSpace(lc.Text)
	switch {
	case strings.HasPrefix(t, "assign "):
		fs = append(fs, "kind=assign")
	case strings.HasPrefix(t, "if ") || strings.HasPrefix(t, "else if"):
		fs = append(fs, "kind=if")
	case strings.HasPrefix(t, "else"):
		fs = append(fs, "kind=else")
	case strings.HasPrefix(t, "case"):
		fs = append(fs, "kind=case")
	case strings.HasPrefix(t, "localparam ") || strings.HasPrefix(t, "parameter "):
		fs = append(fs, "kind=param")
	case strings.Contains(t, "<="):
		fs = append(fs, "kind=nba")
	case strings.Contains(t, "="):
		fs = append(fs, "kind=blocking")
	default:
		fs = append(fs, "kind=other")
	}
	switch {
	case lc.Mentions >= 2:
		fs = append(fs, "mentions=2+")
	case lc.Mentions == 1:
		fs = append(fs, "mentions=1")
	default:
		fs = append(fs, "mentions=0")
	}
	switch {
	case lc.ConeDist == 0:
		fs = append(fs, "cone=0")
	case lc.ConeDist == 1:
		fs = append(fs, "cone=1")
	case lc.ConeDist >= 2:
		fs = append(fs, "cone=2+")
	default:
		fs = append(fs, "cone=out")
	}
	if strings.Contains(t, "!") {
		fs = append(fs, "has=negation")
	}
	if strings.ContainsAny(t, "0123456789") {
		fs = append(fs, "has=const")
	}
	if lc.HasLM {
		switch {
		case lc.Surprisal >= 6:
			fs = append(fs, "lm=high")
		case lc.Surprisal >= 3:
			fs = append(fs, "lm=mid")
		default:
			fs = append(fs, "lm=low")
		}
	}
	return fs
}

// Localizer is the SFT-learned naive-Bayes line ranker.
type Localizer struct {
	buggyFeat  map[string]int
	allFeat    map[string]int
	buggyLines int
	allLines   int
	// DropFeature disables one feature family ("mentions", "cone", "lm")
	// for the ablation benchmarks; empty means all features active.
	DropFeature string
}

// NewLocalizer returns an untrained localiser.
func NewLocalizer() *Localizer {
	return &Localizer{buggyFeat: map[string]int{}, allFeat: map[string]int{}}
}

// Trained reports whether any samples were consumed.
func (l *Localizer) Trained() bool { return l.buggyLines > 0 }

// Observe updates counts with one scored line and whether it was the
// ground-truth buggy line.
func (l *Localizer) Observe(lc *lineContext, isBuggy bool) {
	fs := lc.features()
	l.allLines++
	for _, f := range fs {
		l.allFeat[f]++
	}
	if isBuggy {
		l.buggyLines++
		for _, f := range fs {
			l.buggyFeat[f]++
		}
	}
}

// Score returns the naive-Bayes log-odds that the line is buggy.
func (l *Localizer) Score(lc *lineContext) float64 {
	if !l.Trained() {
		return 0
	}
	score := 0.0
	for _, f := range lc.features() {
		if l.DropFeature != "" && strings.HasPrefix(f, l.DropFeature+"=") {
			continue
		}
		pBuggy := (float64(l.buggyFeat[f]) + 0.5) / (float64(l.buggyLines) + 1)
		pAll := (float64(l.allFeat[f]) + 0.5) / (float64(l.allLines) + 1)
		score += math.Log(pBuggy / pAll)
	}
	return score
}

// problemView is the engine's parsed understanding of one problem.
type problemView struct {
	lines      []string
	candidates []*lineContext
	declared   []string // declared signal names, assertion-relevant first
	assertSigs []string
}

// parseProblem analyses the buggy code and logs into a problemView. It
// works on a best-effort basis: if the code does not parse, structural
// features degrade and only text-level candidates remain.
func parseProblem(code, logs string, lm *NGramLM) *problemView {
	pv := &problemView{lines: strings.Split(code, "\n")}
	facts := parseLogs(logs)

	var graph *depGraph
	var declared []string
	var params []string
	m, err := verilog.Parse(code)
	if err == nil {
		graph = buildDepGraph(m)
		for _, it := range m.Items {
			if pd, ok := it.(*verilog.ParamDecl); ok {
				params = append(params, pd.Name)
			}
		}
		// Assertion signals: from the named failing assertion if
		// resolvable, plus the log's sampled-value names.
		sigs := append([]string(nil), facts.Signals...)
		for _, p := range m.Properties() {
			if p.Name+"_assertion" == facts.AssertName || p.Name == facts.AssertName {
				collect := func(e verilog.Expr) {
					for s := range verilog.ExprIdents(e) {
						if !slices.Contains(sigs, s) {
							sigs = append(sigs, s)
						}
					}
				}
				for _, t := range p.Seq.Antecedent {
					collect(t.Expr)
				}
				for _, t := range p.Seq.Consequent {
					collect(t.Expr)
				}
			}
		}
		pv.assertSigs = sigs
		for name := range graph.declared {
			declared = append(declared, name)
		}
	} else {
		pv.assertSigs = facts.Signals
	}

	var cone map[string]int
	if graph != nil {
		cone = graph.coneDistances(pv.assertSigs)
	}

	// Order declared: assertion signals first, then cone-reachable signals
	// by distance, then parameters, then the rest alphabetically.
	var inCone []string
	if cone != nil {
		var rest []string
		for _, d := range declared {
			if _, ok := cone[d]; ok && !slices.Contains(pv.assertSigs, d) {
				inCone = append(inCone, d)
			} else if !slices.Contains(pv.assertSigs, d) {
				rest = append(rest, d)
			}
		}
		slices.Sort(inCone)
		slices.SortStableFunc(inCone, func(a, b string) int { return cmp.Compare(cone[a], cone[b]) })
		declared = rest
	}
	ordered := append([]string(nil), pv.assertSigs...)
	ordered = append(ordered, inCone...)
	slices.Sort(params)
	ordered = append(ordered, params...)
	pv.declared = orderSignals(append(declared, params...), ordered)

	inProperty := false
	for i, raw := range pv.lines {
		t := strings.TrimSpace(raw)
		if strings.HasPrefix(t, "property ") {
			inProperty = true
		}
		if strings.HasPrefix(t, "endproperty") {
			inProperty = false
			continue
		}
		if inProperty || strings.Contains(t, "assert property") || strings.HasPrefix(t, "else $error") {
			continue
		}
		if !isStatementLine(raw) {
			continue
		}
		lc := &lineContext{Text: raw, Toks: tokenizeLine(t), No: i + 1}
		lc.Assigned = assignedTargets(lc.Toks)
		lc.ConeDist = -1
		if cone != nil {
			for _, a := range lc.Assigned {
				if d, ok := cone[a]; ok && (lc.ConeDist < 0 || d < lc.ConeDist) {
					lc.ConeDist = d
				}
			}
		}
		for _, tok := range lc.Toks {
			if tok.Kind == verilog.TokIdent && slices.Contains(pv.assertSigs, tok.Text) {
				lc.Mentions++
			}
		}
		if lm != nil && lm.Trained() {
			lc.HasLM = true
			lc.Surprisal = lm.Surprisal(lc.Toks)
		}
		pv.candidates = append(pv.candidates, lc)
	}
	return pv
}

func orderSignals(declared, priority []string) []string {
	var first, rest []string
	seen := map[string]bool{}
	for _, p := range priority {
		for _, d := range declared {
			if d == p && !seen[d] {
				first = append(first, d)
				seen[d] = true
			}
		}
	}
	for _, d := range declared {
		if !seen[d] {
			rest = append(rest, d)
		}
	}
	slices.Sort(rest)
	return append(first, rest...)
}

// assignedTargets extracts assignment-target names from one lexed line
// (augment.affectedOfLine's counterpart over tokens).
func assignedTargets(toks []verilog.Token) []string {
	var out []string
	for i := 1; i < len(toks); i++ {
		if toks[i].Kind == verilog.TokLE || toks[i].Kind == verilog.TokEq {
			// walk back over a possible select to the base identifier
			j := i - 1
			depth := 0
			for j >= 0 {
				switch toks[j].Kind {
				case verilog.TokRBracket:
					depth++
				case verilog.TokLBracket:
					depth--
				case verilog.TokIdent:
					if depth == 0 {
						if !slices.Contains(out, toks[j].Text) {
							out = append(out, toks[j].Text)
						}
						j = -1
					}
				}
				j--
			}
		}
	}
	return out
}

// String renders a context compactly for debugging.
func (lc *lineContext) String() string {
	return fmt.Sprintf("line %d cone=%d mentions=%d: %s", lc.No, lc.ConeDist, lc.Mentions, strings.TrimSpace(lc.Text))
}
