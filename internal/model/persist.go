package model

import (
	"encoding/json"
	"fmt"
	"io"
)

// snapshot is the serialised form of a trained model.
type snapshot struct {
	Version int `json:"version"`

	HasPT  bool `json:"has_pt"`
	HasSFT bool `json:"has_sft"`
	HasDPO bool `json:"has_dpo"`

	WLoc             float64 `json:"w_loc"`
	WCone            float64 `json:"w_cone"`
	WSusp            float64 `json:"w_susp"`
	WPat             float64 `json:"w_pat"`
	GenericBias      float64 `json:"generic_bias"`
	SpanPenalty      float64 `json:"span_penalty"`
	Sharpness        float64 `json:"sharpness"`
	FormatCompliance float64 `json:"format_compliance"`
	TempScale        float64 `json:"temp_scale"`
	ReasonDepth      int     `json:"reason_depth"`
	ReasonRuns       int     `json:"reason_runs"`
	ReasonBoost      float64 `json:"reason_boost"`

	LMUni   map[string]int `json:"lm_uni"`
	LMBi    map[string]int `json:"lm_bi"`
	LMTri   map[string]int `json:"lm_tri"`
	LMTotal int            `json:"lm_total"`
	LMVocab int            `json:"lm_vocab"`

	LocBuggyFeat  map[string]int `json:"loc_buggy_feat"`
	LocAllFeat    map[string]int `json:"loc_all_feat"`
	LocBuggyLines int            `json:"loc_buggy_lines"`
	LocAllLines   int            `json:"loc_all_lines"`

	Patterns        []patternJSON  `json:"patterns"`
	SpanPatterns    []patternJSON  `json:"span_patterns"`
	LineGood        map[string]int `json:"line_good"`
	LineBuggy       map[string]int `json:"line_buggy"`
	LineGoodX       map[string]int `json:"line_good_x"`
	LineBuggyX      map[string]int `json:"line_buggy_x"`
	BeforeTotal     map[string]int `json:"before_total"`
	SpanBeforeTotal map[string]int `json:"span_before_total"`

	DPOAdj map[string]float64 `json:"dpo_adj"`
}

type patternJSON struct {
	Before []string       `json:"before"`
	After  []string       `json:"after"`
	Count  int            `json:"count"`
	Syn    map[string]int `json:"syn"`
}

// Save serialises the model as JSON.
func (m *Model) Save(w io.Writer) error {
	snap := snapshot{
		Version:          1,
		HasPT:            m.HasPT,
		HasSFT:           m.HasSFT,
		HasDPO:           m.HasDPO,
		WLoc:             m.WLoc,
		WCone:            m.WCone,
		WSusp:            m.WSusp,
		WPat:             m.WPat,
		GenericBias:      m.GenericBias,
		SpanPenalty:      m.SpanPenalty,
		Sharpness:        m.Sharpness,
		FormatCompliance: m.FormatCompliance,
		TempScale:        m.TempScale,
		ReasonDepth:      m.ReasonDepth,
		ReasonRuns:       m.ReasonRuns,
		ReasonBoost:      m.ReasonBoost,

		LMUni:   m.LM.uni,
		LMBi:    m.LM.bi,
		LMTri:   m.LM.tri,
		LMTotal: m.LM.total,
		LMVocab: m.LM.vocabN,

		LocBuggyFeat:  m.Loc.buggyFeat,
		LocAllFeat:    m.Loc.allFeat,
		LocBuggyLines: m.Loc.buggyLines,
		LocAllLines:   m.Loc.allLines,

		LineGood:        m.Patterns.lineGood,
		LineBuggy:       m.Patterns.lineBuggy,
		LineGoodX:       m.Patterns.lineGoodX,
		LineBuggyX:      m.Patterns.lineBuggyX,
		BeforeTotal:     m.Patterns.line.beforeTotal,
		SpanBeforeTotal: m.Patterns.span.beforeTotal,

		DPOAdj: m.dpoAdj,
	}
	for _, p := range m.Patterns.line.order {
		snap.Patterns = append(snap.Patterns, patternJSON{Before: p.Before, After: p.After, Count: p.Count, Syn: p.Syn})
	}
	for _, p := range m.Patterns.span.order {
		snap.SpanPatterns = append(snap.SpanPatterns, patternJSON{Before: p.Before, After: p.After, Count: p.Count, Syn: p.Syn})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&snap)
}

// Load deserialises a model saved with Save.
func Load(r io.Reader) (*Model, error) {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("model: load: %w", err)
	}
	if snap.Version != 1 {
		return nil, fmt.Errorf("model: unsupported snapshot version %d", snap.Version)
	}
	m := New()
	m.HasPT, m.HasSFT, m.HasDPO = snap.HasPT, snap.HasSFT, snap.HasDPO
	m.WLoc, m.WCone, m.WSusp, m.WPat = snap.WLoc, snap.WCone, snap.WSusp, snap.WPat
	m.GenericBias, m.SpanPenalty = snap.GenericBias, snap.SpanPenalty
	m.Sharpness, m.FormatCompliance, m.TempScale = snap.Sharpness, snap.FormatCompliance, snap.TempScale
	m.ReasonDepth, m.ReasonRuns, m.ReasonBoost = snap.ReasonDepth, snap.ReasonRuns, snap.ReasonBoost

	if snap.LMUni != nil {
		m.LM.uni, m.LM.bi, m.LM.tri = snap.LMUni, snap.LMBi, snap.LMTri
		m.LM.total, m.LM.vocabN = snap.LMTotal, snap.LMVocab
	}
	if snap.LocBuggyFeat != nil {
		m.Loc.buggyFeat, m.Loc.allFeat = snap.LocBuggyFeat, snap.LocAllFeat
		m.Loc.buggyLines, m.Loc.allLines = snap.LocBuggyLines, snap.LocAllLines
	}
	restore := func(t *patTable, list []patternJSON, beforeTotal map[string]int) {
		for _, pj := range list {
			e := &patEntry{Before: pj.Before, After: pj.After, Count: pj.Count, Syn: pj.Syn}
			if e.Syn == nil {
				e.Syn = map[string]int{}
			}
			t.add(e)
		}
		if beforeTotal != nil {
			t.beforeTotal = beforeTotal
		}
	}
	restore(&m.Patterns.line, snap.Patterns, snap.BeforeTotal)
	restore(&m.Patterns.span, snap.SpanPatterns, snap.SpanBeforeTotal)
	if snap.LineGood != nil {
		m.Patterns.lineGood = snap.LineGood
		m.Patterns.lineBuggy = snap.LineBuggy
		m.Patterns.lineGoodX = snap.LineGoodX
		m.Patterns.lineBuggyX = snap.LineBuggyX
	}
	if snap.DPOAdj != nil {
		m.dpoAdj = snap.DPOAdj
	}
	return m, nil
}
