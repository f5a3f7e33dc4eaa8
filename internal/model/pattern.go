package model

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/verilog"
)

// Placeholder prefixes used in abstracted edit templates.
const (
	phIdent = "<ID"
	phNum   = "<NUM"
)

func isPlaceholder(tok string) bool {
	return strings.HasPrefix(tok, phIdent) || strings.HasPrefix(tok, phNum)
}

// patEntry is one learned edit pattern: an abstracted buggy-line template,
// the corresponding fix template, and how often it was seen in training.
type patEntry struct {
	Before []string
	After  []string
	Count  int
	// Syn records the dominant Table I class seen with this pattern, for
	// CoT phrasing.
	Syn map[string]int
	key string // the pattern's key in its table, which DPO adjusts
}

func (p *patEntry) dominantSyn() string {
	best, bestN := "", -1
	var keys []string
	for k := range p.Syn {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if p.Syn[k] > bestN {
			best, bestN = k, p.Syn[k]
		}
	}
	return best
}

// patTable is one table of edit patterns. Whole-line patterns must match
// a candidate line entirely. Span patterns are minimal differing token
// windows with one token of context, which match anywhere in a line and
// generalise edits to line shapes never seen whole; their keys carry the
// prefix "span:".
type patTable struct {
	span  bool
	byKey map[string]*patEntry
	order []*patEntry // insertion order for determinism
	// beforeTotal counts pattern observations per Before template,
	// normalising P(fix template | buggy template).
	beforeTotal map[string]int
}

func newPatTable(span bool) patTable {
	return patTable{span: span, byKey: map[string]*patEntry{}, beforeTotal: map[string]int{}}
}

// keyOf returns the key of a template pair in the table.
func (t *patTable) keyOf(before, after []string) string {
	key := strings.Join(before, "\x00") + "\x01" + strings.Join(after, "\x00")
	if t.span {
		return "span:" + key
	}
	return key
}

// add appends a new pattern to the table.
func (t *patTable) add(e *patEntry) {
	e.key = t.keyOf(e.Before, e.After)
	t.byKey[e.key] = e
	t.order = append(t.order, e)
}

// learn counts one observation of a template pair.
func (t *patTable) learn(before, after []string, syn string) {
	t.beforeTotal[strings.Join(before, "\x00")]++
	if e := t.byKey[t.keyOf(before, after)]; e != nil {
		e.Count++
		e.Syn[syn]++
		return
	}
	t.add(&patEntry{Before: before, After: after, Count: 1, Syn: map[string]int{syn: 1}})
}

// condLogP returns log P(fix template | buggy template) for a pattern.
func (t *patTable) condLogP(p *patEntry) float64 {
	tot := t.beforeTotal[strings.Join(p.Before, "\x00")]
	return math.Log((float64(p.Count) + 0.5) / (float64(tot) + 1))
}

// patFix is one rewrite of a line and the pattern it came from.
type patFix struct {
	fix string
	pat *patEntry
}

// fixes applies the table's patterns to a lexed line, dropping rewrites
// equal to the line itself. A span pattern is tried at every position and
// its rendering spliced into the line's surface tokens.
func (t *patTable) fixes(line string, toks []verilog.Token, idFills []string) []patFix {
	surface := make([]string, len(toks))
	for i, tok := range toks {
		surface[i] = tokenText(tok)
	}
	var out []patFix
	for _, pat := range t.order {
		last := len(toks) - len(pat.Before)
		if !t.span && last != 0 {
			continue
		}
		for i := 0; i <= last; i++ {
			bind, ok := unify(pat.Before, toks[i:i+len(pat.Before)])
			if !ok {
				continue
			}
			for _, mid := range applyPattern(pat, bind, idFills) {
				rebuilt := make([]string, 0, len(surface)+len(mid))
				rebuilt = append(rebuilt, surface[:i]...)
				rebuilt = append(rebuilt, mid...)
				rebuilt = append(rebuilt, surface[i+len(pat.Before):]...)
				if fix := renderTokens(rebuilt); fix != line {
					out = append(out, patFix{fix: fix, pat: pat})
				}
			}
		}
	}
	return out
}

// PatternStore holds the SFT-learned edit patterns plus line-template
// statistics: how often each abstracted line shape was seen as the buggy
// line versus as healthy code. The ratio ("suspicion") is the engine's
// strongest localisation signal — e.g. the self-increment template
// `<ID1> <= <ID1> + <NUM1> ;` is overwhelmingly healthy, while the
// cross-signal `<ID1> <= <ID2> + <NUM1> ;` shape is a frequent Var-bug
// signature. The repeated-placeholder abstraction keeps the two distinct.
type PatternStore struct {
	// line holds the precise whole-line patterns; span backs them up on
	// novel designs (the SVA-Eval-Human scenario).
	line, span patTable

	lineGood  map[string]int
	lineBuggy map[string]int
	// Exact-number channel: identifiers abstracted, constants concrete.
	// Separates Value bugs (`x <= x + 2`) from the healthy idiom
	// (`x <= x + 1`), which share the fully abstract template.
	lineGoodX  map[string]int
	lineBuggyX map[string]int
}

// newPatternStore returns an empty store.
func newPatternStore() *PatternStore {
	return &PatternStore{
		line:       newPatTable(false),
		span:       newPatTable(true),
		lineGood:   map[string]int{},
		lineBuggy:  map[string]int{},
		lineGoodX:  map[string]int{},
		lineBuggyX: map[string]int{},
	}
}

// placeholders numbers identifiers and numbers in first-seen order, one
// sequence each, so a repeated name maps to a repeated placeholder.
type placeholders struct{ ids, nums map[string]string }

// of returns the placeholder of name in the sequence of prefix (phIdent
// or phNum).
func (ph *placeholders) of(prefix, name string) string {
	if ph.ids == nil {
		ph.ids, ph.nums = map[string]string{}, map[string]string{}
	}
	m := ph.ids
	if prefix == phNum {
		m = ph.nums
	}
	p, seen := m[name]
	if !seen {
		p = prefix + strconv.Itoa(len(m)+1) + ">"
		m[name] = p
	}
	return p
}

// abstract maps tokens to template tokens: identifiers and numbers become
// placeholders, everything else its surface text.
func (ph *placeholders) abstract(toks []verilog.Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		switch t.Kind {
		case verilog.TokIdent:
			out[i] = ph.of(phIdent, t.Text)
		case verilog.TokNumber:
			out[i] = ph.of(phNum, t.Text)
		default:
			out[i] = tokenText(t)
		}
	}
	return out
}

// lineKeys maps a lexed line to its two template keys: key abstracts
// identifiers and numbers, keyX (the exact-number channel) identifiers
// only. An empty line has empty keys.
func lineKeys(toks []verilog.Token) (key, keyX string) {
	var ph placeholders
	abs := ph.abstract(toks)
	exact := make([]string, len(toks))
	for i, t := range toks {
		exact[i] = abs[i]
		if t.Kind == verilog.TokNumber {
			exact[i] = t.Text
		}
	}
	return strings.Join(abs, "\x00"), strings.Join(exact, "\x00")
}

// ObserveLine counts one lexed training line as buggy or healthy.
func (ps *PatternStore) ObserveLine(toks []verilog.Token, buggy bool) {
	key, keyX := lineKeys(toks)
	if key == "" {
		return
	}
	if buggy {
		ps.lineBuggy[key]++
		ps.lineBuggyX[keyX]++
	} else {
		ps.lineGood[key]++
		ps.lineGoodX[keyX]++
	}
}

// Suspicion returns the log-odds that a lexed line's template is a bug
// signature, combining the fully abstract channel with the exact-number
// channel.
func (ps *PatternStore) Suspicion(toks []verilog.Token) float64 {
	key, keyX := lineKeys(toks)
	if key == "" {
		return 0
	}
	logOdds := func(b, g int) float64 {
		return math.Log((float64(b) + 0.5) / (float64(g) + 0.5))
	}
	s := logOdds(ps.lineBuggy[key], ps.lineGood[key])
	sx := logOdds(ps.lineBuggyX[keyX], ps.lineGoodX[keyX])
	return 0.5*s + 0.7*sx
}

// Len returns the number of distinct whole-line patterns.
func (ps *PatternStore) Len() int { return len(ps.line.order) }

// SpanLen returns the number of distinct span patterns.
func (ps *PatternStore) SpanLen() int { return len(ps.span.order) }

// TotalCount returns the total observation count across whole-line
// patterns.
func (ps *PatternStore) TotalCount() int {
	n := 0
	for _, p := range ps.line.order {
		n += p.Count
	}
	return n
}

// Learn abstracts a (buggy line, fixed line) pair into a template pair,
// with placeholders shared across the pair, and counts it and its
// differing span. Pairs whose fix template needs more than one unbound
// placeholder are skipped (too unconstrained to reapply).
func (ps *PatternStore) Learn(buggyLine, fixedLine, syn string) {
	bToks, fToks := tokenizeLine(buggyLine), tokenizeLine(fixedLine)
	if len(bToks) == 0 || len(fToks) == 0 {
		return
	}
	var ph placeholders
	before, after := ph.abstract(bToks), ph.abstract(fToks)
	if unbound(before, after) > 1 {
		return
	}
	if bs, as, ok := diffSpan(before, after); ok {
		// Renumber the placeholders within the span.
		var spanPh placeholders
		for _, toks := range [][]string{bs, as} {
			for i, t := range toks {
				if strings.HasPrefix(t, phIdent) {
					toks[i] = spanPh.of(phIdent, t)
				} else if strings.HasPrefix(t, phNum) {
					toks[i] = spanPh.of(phNum, t)
				}
			}
		}
		if unbound(bs, as) <= 1 {
			ps.span.learn(bs, as, syn)
		}
	}
	ps.line.learn(before, after, syn)
}

// unbound counts the placeholders of after that before does not bind.
func unbound(before, after []string) int {
	n := 0
	for _, t := range after {
		if isPlaceholder(t) && !slices.Contains(before, t) {
			n++
		}
	}
	return n
}

// diffSpan returns the differing window of two token sequences with one
// token of shared context on each side.
func diffSpan(before, after []string) (bs, as []string, ok bool) {
	p := 0
	for p < len(before) && p < len(after) && before[p] == after[p] {
		p++
	}
	s := 0
	for s < len(before)-p && s < len(after)-p &&
		before[len(before)-1-s] == after[len(after)-1-s] {
		s++
	}
	if p == len(before) && p == len(after) {
		return nil, nil, false // identical
	}
	lo := p - 1
	if lo < 0 {
		lo = 0
	}
	bHi := len(before) - s + 1
	if bHi > len(before) {
		bHi = len(before)
	}
	aHi := len(after) - s + 1
	if aHi > len(after) {
		aHi = len(after)
	}
	bs = append([]string(nil), before[lo:bHi]...)
	as = append([]string(nil), after[lo:aHi]...)
	if len(bs) == 0 || len(as) == 0 || len(bs) > 8 {
		return nil, nil, false
	}
	return bs, as, true
}

// unify matches a pattern's Before template against a concrete token line.
// Placeholders bind to single ident/number tokens consistently; literal
// template tokens must match the surface text exactly.
func unify(template []string, toks []verilog.Token) (map[string]string, bool) {
	if len(template) != len(toks) {
		return nil, false
	}
	bind := map[string]string{}
	for i, tt := range template {
		surface := tokenText(toks[i])
		switch {
		case strings.HasPrefix(tt, phIdent):
			if toks[i].Kind != verilog.TokIdent {
				return nil, false
			}
			if prev, ok := bind[tt]; ok && prev != surface {
				return nil, false
			}
			bind[tt] = surface
		case strings.HasPrefix(tt, phNum):
			if toks[i].Kind != verilog.TokNumber {
				return nil, false
			}
			if prev, ok := bind[tt]; ok && prev != surface {
				return nil, false
			}
			bind[tt] = surface
		default:
			if tt != surface {
				return nil, false
			}
		}
	}
	return bind, true
}

// applyPattern renders the After template under the bindings to surface
// tokens. When an unbound placeholder remains, one rendering per fill
// candidate is produced.
func applyPattern(p *patEntry, bind map[string]string, idFills []string) [][]string {
	unboundPh := ""
	for _, t := range p.After {
		if isPlaceholder(t) && bind[t] == "" {
			unboundPh = t
			break
		}
	}
	render := func(fill string) []string {
		toks := make([]string, len(p.After))
		for i, t := range p.After {
			toks[i] = t // an unresolved placeholder fails to compile, harmlessly
			if v := bind[t]; isPlaceholder(t) && v != "" {
				toks[i] = v
			} else if t == unboundPh && fill != "" {
				toks[i] = fill
			}
		}
		return toks
	}
	if unboundPh == "" {
		return [][]string{render("")}
	}
	fills := idFills
	if strings.HasPrefix(unboundPh, phNum) {
		// Unbound number: derive variants from the replaced number (a NUM
		// placeholder present in Before but absent from After).
		base := ""
		for _, t := range p.Before {
			if strings.HasPrefix(t, phNum) && !slices.Contains(p.After, t) && bind[t] != "" {
				base = bind[t]
				break
			}
		}
		fills = numVariants(base)
	}
	var out [][]string
	for _, f := range fills {
		out = append(out, render(f))
	}
	return out
}

// numVariants proposes plausible replacement constants for a numeric
// literal, preserving its width/base formatting.
func numVariants(text string) []string {
	if text == "" {
		return []string{"0", "1"}
	}
	prefix := ""
	digits := text
	if i := strings.IndexByte(text, '\''); i >= 0 {
		prefix = text[:i+2] // includes base letter
		digits = text[i+2:]
	}
	radix := 10
	if len(prefix) >= 2 {
		switch prefix[len(prefix)-1] {
		case 'b', 'B':
			radix = 2
		case 'o', 'O':
			radix = 8
		case 'h', 'H':
			radix = 16
		}
	}
	v, err := strconv.ParseUint(strings.ReplaceAll(digits, "_", ""), radix, 64)
	if err != nil {
		return []string{"0", "1"}
	}
	format := func(x uint64) string {
		return prefix + strconv.FormatUint(x, radix)
	}
	var out []string
	add := func(x uint64) {
		s := format(x)
		if s != text && !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	add(v + 1)
	if v > 0 {
		add(v - 1)
	}
	add(v << 1)
	add(v >> 1)
	add(0)
	add(1)
	if len(out) > 5 {
		out = out[:5]
	}
	return out
}

// renderTokens joins surface tokens back into printer-style source text,
// matching the spacing conventions of verilog.Print so rendered fixes
// compare cleanly against golden lines.
func renderTokens(toks []string) string {
	unary := markUnary(toks)
	var sb strings.Builder
	depth := 0     // bracket [ ] depth: no spaces inside selects
	ternaries := 0 // pending '?' operators awaiting their ':'
	for i, t := range toks {
		switch t {
		case "[":
			depth++
		case "]":
			if depth > 0 {
				depth--
			}
		case "?":
			ternaries++
		}
		isTernaryColon := false
		if t == ":" && depth == 0 && ternaries > 0 {
			ternaries--
			isTernaryColon = true
		}
		if i == 0 {
			sb.WriteString(t)
			continue
		}
		if needSpace(toks[i-1], t, unary[i-1], depth, isTernaryColon) {
			sb.WriteString(" ")
		}
		sb.WriteString(t)
	}
	return sb.String()
}

// markUnary flags operator tokens used in unary (prefix) position: they
// bind tightly to their operand (^data, !x, -1). An operator is unary when
// it does not follow an operand-ending token.
func markUnary(toks []string) []bool {
	out := make([]bool, len(toks))
	for i, t := range toks {
		switch t {
		case "!", "~", "~^":
			out[i] = true
		case "^", "&", "|", "-", "+":
			if i == 0 {
				out[i] = true
				break
			}
			prev := toks[i-1]
			endsOperand := prev == ")" || prev == "]" || prev == "}" ||
				(len(prev) > 0 && (isIdentLike(prev) || isNumberToken(prev)))
			out[i] = !endsOperand
		}
	}
	return out
}

func isIdentLike(t string) bool {
	c := t[0]
	if !(c == '_' || c == '$' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
		return false
	}
	// Keywords that do not end an operand.
	switch t {
	case "if", "else", "case", "casez", "assign", "begin", "return":
		return false
	}
	return true
}

func needSpace(prev, cur string, prevUnary bool, bracketDepth int, ternaryColon bool) bool {
	// Inside bit/part selects everything is tight: a[3:0].
	if bracketDepth > 0 || cur == "]" {
		return false
	}
	if prevUnary {
		return false
	}
	switch prev {
	case "(", "{", "[", "#", "##":
		return false
	}
	switch cur {
	case ";", ",", ")", "}", "[":
		return false
	case ":":
		return ternaryColon // 'c ? a : b' spaced, case labels tight
	case "(":
		// Tight after system calls ($past(...)), spaced after keywords.
		return !strings.HasPrefix(prev, "$")
	case "{":
		// Tight in replications ({4{x}}), spaced elsewhere.
		return !isNumberToken(prev)
	}
	return true
}

func isNumberToken(t string) bool {
	return len(t) > 0 && t[0] >= '0' && t[0] <= '9'
}
