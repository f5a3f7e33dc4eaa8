// This file defines the entry types (PTEntry, BugEntry, SVASample),
// the module-name split and the Table II statistics; see doc.go for
// the package overview and the on-disk format contracts.
package dataset

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/corpus"
)

// PTEntry is one Verilog-PT pretraining entry: raw code plus spec, and for
// non-compiling code the compiler failure analysis (Fig. 2 dataset (a)).
type PTEntry struct {
	Name     string `json:"name"`
	Code     string `json:"code"`
	Spec     string `json:"spec"`
	Compiles bool   `json:"compiles"`
	Analysis string `json:"analysis,omitempty"` // cause of the compile failure
}

// Text renders the entry as the pretraining text stream.
func (e *PTEntry) Text() string {
	var sb strings.Builder
	if e.Compiles {
		sb.WriteString("The following Verilog code compiles successfully.\n")
	} else {
		sb.WriteString("The following Verilog code failed to compile.\n")
	}
	sb.WriteString(e.Code)
	sb.WriteString("\nThe specification is:\n")
	sb.WriteString(e.Spec)
	if !e.Compiles && e.Analysis != "" {
		sb.WriteString("The failure may have been caused by:\n")
		sb.WriteString(e.Analysis)
	}
	return sb.String()
}

// BugEntry is one Verilog-Bug entry (Fig. 2 dataset (b)): a functional bug
// that did not trigger any assertion, with its repair plan.
type BugEntry struct {
	Name       string `json:"name"`
	Spec       string `json:"spec"`
	BuggyCode  string `json:"buggy_code"`
	BuggyLine  string `json:"buggy_line"`
	FixedLine  string `json:"fixed_line"`
	LineNo     int    `json:"line_no"`
	DiffReport string `json:"diff_report"` // behavioural difference evidence
}

// Question renders the model input for the auxiliary debugging task.
func (e *BugEntry) Question() string {
	return fmt.Sprintf("There is a Verilog module that contains a bug.\n%s\nThe specification is:\n%s\nPlease give me a solution.",
		e.BuggyCode, e.Spec)
}

// Answer renders the repair plan.
func (e *BugEntry) Answer() string {
	return fmt.Sprintf("Buggy line %d: %s\nCorrect code: %s", e.LineNo, e.BuggyLine, e.FixedLine)
}

// SVASample is one assertion-failure sample, used both for SVA-Bug
// (training, Fig. 2 dataset (c)) and SVA-Eval (benchmark). It carries
// everything the model sees (Spec, buggy SV, logs) plus the ground truth
// and taxonomy labels.
type SVASample struct {
	ID     string `json:"id"`
	Module string `json:"module"`
	Family string `json:"family"`

	Spec       string `json:"spec"`
	BuggyCode  string `json:"buggy_code"`
	GoldenCode string `json:"golden_code"`
	Logs       string `json:"logs"`

	LineNo    int    `json:"line_no"`
	BuggyLine string `json:"buggy_line"`
	FixedLine string `json:"fixed_line"`

	CoT      string `json:"cot,omitempty"`
	CoTValid bool   `json:"cot_valid"`

	Syn      string `json:"syn_class"` // Var | Value | Op
	IsCond   bool   `json:"is_cond"`
	IsDirect bool   `json:"is_direct"`

	Lines      int    `json:"lines"`
	CheckDepth int    `json:"check_depth"` // formal bound covering the assertions
	Origin     string `json:"origin"`      // "machine" | "human"
}

// Question renders the model input; stepByStep requests a CoT answer, as in
// Fig. 2 dataset (c).
func (s *SVASample) Question(stepByStep bool) string {
	suffix := "please give me a solution."
	if stepByStep {
		suffix = "please give me a solution step by step."
	}
	return fmt.Sprintf("There is a SystemVerilog module that will trigger assertions.\n%s\nAssertion logs:\n%s\nThe specification is:\n%s\nBased on the above, %s",
		s.BuggyCode, s.Logs, s.Spec, suffix)
}

// Answer renders the golden answer (buggy line + fix, plus CoT when valid).
func (s *SVASample) Answer() string {
	base := fmt.Sprintf("Buggy line %d: %s\nCorrect code: %s", s.LineNo, s.BuggyLine, s.FixedLine)
	if s.CoTValid && s.CoT != "" {
		return base + "\nReasoning:\n" + s.CoT
	}
	return base
}

// BinIndex returns the Table II length-bin index of the sample.
func (s *SVASample) BinIndex() int { return corpus.BinIndex(s.Lines) }

// TypeLabels returns the Table I / Fig. 4 category labels the sample falls
// into: one of Direct/Indirect, one of Var/Value/Op, one of Cond/Non_cond.
func (s *SVASample) TypeLabels() []string {
	labels := make([]string, 0, 3)
	if s.IsDirect {
		labels = append(labels, "Direct")
	} else {
		labels = append(labels, "Indirect")
	}
	labels = append(labels, s.Syn)
	if s.IsCond {
		labels = append(labels, "Cond")
	} else {
		labels = append(labels, "Non_cond")
	}
	return labels
}

// AllTypeLabels lists the seven Fig. 4a categories in presentation order,
// plus the Reset class (reset-removal / initialisation-deletion bugs, the
// four-state-only extension of Table I). Use it for training-distribution
// displays; evaluation tables iterate EvalTypeLabels, since Reset samples
// are train-only and would render a permanently-empty eval column.
func AllTypeLabels() []string {
	return []string{"Direct", "Indirect", "Var", "Value", "Op", "Reset", "Cond", "Non_cond"}
}

// EvalTypeLabels lists the paper's own seven Fig. 4a categories — the
// label set the evaluation benchmarks are defined over (TrainOnly classes
// excluded).
func EvalTypeLabels() []string {
	return []string{"Direct", "Indirect", "Var", "Value", "Op", "Cond", "Non_cond"}
}

// ---------------------------------------------------------------------------
// Split
// ---------------------------------------------------------------------------

// TrainOnly reports whether the sample is excluded from the evaluation
// benchmarks. Reset-class samples (the four-state-only extension of
// Table I) are train-only: the paper's RQ2/RQ3 benchmarks are defined over
// the paper's bug taxonomy, so the extension class feeds the model without
// shifting the replication metrics. A TrainOnly sample whose module lands
// on the test side of the split is dropped entirely — never moved — so
// train and test stay module-disjoint.
func (s *SVASample) TrainOnly() bool { return s.Syn == "Reset" }

// ModuleNames collects a sample stream's unique module names per length
// bin, in first-seen order: the population the module split is drawn
// from. The zero value is ready to use.
type ModuleNames struct {
	ByBin map[int][]string
	seen  map[string]bool
}

// Add records s's module the first time it appears, in s's length bin.
func (n *ModuleNames) Add(s *SVASample) {
	if n.seen[s.Module] {
		return
	}
	if n.seen == nil {
		n.ByBin, n.seen = map[int][]string{}, map[string]bool{}
	}
	n.seen[s.Module] = true
	b := s.BinIndex()
	n.ByBin[b] = append(n.ByBin[b], s.Module)
}

// Side is where the module split sends one sample.
type Side int

const (
	SideDrop  Side = iota // a TrainOnly sample on a test module
	SideTrain             // the training set
	SideTest              // the test set
)

// SideOf routes a sample of module by the split's train module names:
// every sample of a train module trains and every other sample tests,
// except a TrainOnly sample on a test module, which is dropped rather than
// moved so train and test stay module-disjoint.
func SideOf(trainNames map[string]bool, module string, trainOnly bool) Side {
	switch {
	case trainNames[module]:
		return SideTrain
	case trainOnly:
		return SideDrop
	}
	return SideTest
}

// TrainNames picks the train side of the module-name split: within each
// length bin, trainFrac of the unique names (uniformly, seeded), always
// leaving at least one test name in any bin with more than one module.
// With ModuleNames and SideOf it is the paper's train/test separation:
// collect the (module, bin) pairs of a sample stream, pick the train
// names, then route every sample by its module in a second pass, so a
// streaming pipeline never holds the samples in memory.
func TrainNames(namesByBin map[int][]string, trainFrac float64, seed int64) map[string]bool {
	rng := rand.New(rand.NewSource(seed))
	trainNames := map[string]bool{}
	var bins []int
	for b := range namesByBin {
		bins = append(bins, b)
	}
	sort.Ints(bins)
	for _, b := range bins {
		names := append([]string(nil), namesByBin[b]...)
		sort.Strings(names)
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		nTrain := int(float64(len(names))*trainFrac + 0.5)
		if nTrain == len(names) && len(names) > 1 {
			nTrain-- // keep at least one test module per bin
		}
		for i, name := range names {
			if i < nTrain {
				trainNames[name] = true
			}
		}
	}
	return trainNames
}

// ---------------------------------------------------------------------------
// Table II statistics
// ---------------------------------------------------------------------------

// Distribution holds the Table II counts for one dataset.
type Distribution struct {
	ByBin  []int          // indexed by corpus bin
	ByType map[string]int // Table I labels
	Total  int
}

// NewDistribution returns an empty distribution ready for streaming Adds.
func NewDistribution() Distribution {
	return Distribution{
		ByBin:  make([]int, len(corpus.LengthBins)+1),
		ByType: map[string]int{},
	}
}

// Add counts one sample by bin index and type labels — the streaming form
// of Distribute for pipelines that never hold the sample set in memory.
func (d *Distribution) Add(bin int, labels []string) {
	d.ByBin[bin]++
	for _, lbl := range labels {
		d.ByType[lbl]++
	}
	d.Total++
}

// Distribute computes the Table II distribution of a sample set.
func Distribute(samples []SVASample) Distribution {
	d := NewDistribution()
	for i := range samples {
		s := &samples[i]
		d.Add(s.BinIndex(), s.TypeLabels())
	}
	return d
}

// FormatTableII renders the Table II layout for two sample sets.
func FormatTableII(train, eval []SVASample) string {
	return FormatTableIIDist(Distribute(train), Distribute(eval))
}

// FormatTableIIDist renders the Table II layout from precomputed
// distributions (the streaming pipeline accumulates them with Add).
func FormatTableIIDist(dt, de Distribution) string {
	var sb strings.Builder
	sb.WriteString("Length Interval ")
	for _, l := range corpus.BinLabels() {
		fmt.Fprintf(&sb, "%12s", l)
	}
	sb.WriteString("\nSVA-Bug         ")
	for _, c := range dt.ByBin {
		fmt.Fprintf(&sb, "%12d", c)
	}
	sb.WriteString("\nSVA-Eval        ")
	for _, c := range de.ByBin {
		fmt.Fprintf(&sb, "%12d", c)
	}
	sb.WriteString("\n\nBug Type        ")
	for _, l := range AllTypeLabels() {
		fmt.Fprintf(&sb, "%10s", l)
	}
	sb.WriteString("\nSVA-Bug         ")
	for _, l := range AllTypeLabels() {
		fmt.Fprintf(&sb, "%10d", dt.ByType[l])
	}
	sb.WriteString("\nSVA-Eval        ")
	for _, l := range AllTypeLabels() {
		fmt.Fprintf(&sb, "%10d", de.ByType[l])
	}
	sb.WriteString("\n")
	return sb.String()
}

// ---------------------------------------------------------------------------
// Serialisation
// ---------------------------------------------------------------------------

// WriteJSON streams any dataset slice as indented JSON.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// ReadSamples decodes an SVA sample slice from JSON.
func ReadSamples(r io.Reader) ([]SVASample, error) {
	var out []SVASample
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}
