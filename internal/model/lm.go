package model

import (
	"math"

	"repro/internal/verilog"
)

// NGramLM is the pretraining product: an interpolated trigram language
// model over Verilog surface tokens. The engine uses per-token surprisal
// as a weak localisation signal — buggy lines tend to be slightly less
// typical than the surrounding code — and as the concrete behavioural
// carrier of the PT stage.
type NGramLM struct {
	uni    map[string]int
	bi     map[string]int
	tri    map[string]int
	total  int
	vocabN int
}

// NewNGramLM returns an empty language model.
func NewNGramLM() *NGramLM {
	return &NGramLM{
		uni: map[string]int{},
		bi:  map[string]int{},
		tri: map[string]int{},
	}
}

// Trained reports whether any text has been consumed.
func (lm *NGramLM) Trained() bool { return lm.total > 0 }

const (
	lmBOS = "<s>"
)

// Train consumes one text (tokenised internally) and updates counts.
func (lm *NGramLM) Train(text string) {
	toks := tokenizeText(text)
	prev1, prev2 := lmBOS, lmBOS
	for _, t := range toks {
		if lm.uni[t] == 0 {
			lm.vocabN++
		}
		lm.uni[t]++
		lm.bi[prev1+"\x00"+t]++
		lm.tri[prev2+"\x00"+prev1+"\x00"+t]++
		lm.total++
		prev2, prev1 = prev1, t
	}
}

// prob returns the interpolated trigram probability of token t given the
// two preceding tokens.
func (lm *NGramLM) prob(prev2, prev1, t string) float64 {
	if lm.total == 0 {
		return 1.0 / 256
	}
	v := float64(lm.vocabN + 1)
	pUni := (float64(lm.uni[t]) + 0.5) / (float64(lm.total) + 0.5*v)
	var pBi float64
	if cu := lm.uni[prev1]; cu > 0 {
		pBi = float64(lm.bi[prev1+"\x00"+t]) / float64(cu)
	}
	var pTri float64
	if cb := lm.bi[prev2+"\x00"+prev1]; cb > 0 {
		pTri = float64(lm.tri[prev2+"\x00"+prev1+"\x00"+t]) / float64(cb)
	}
	return 0.5*pTri + 0.3*pBi + 0.2*pUni
}

// Surprisal returns the average negative log2 probability per token of a
// lexed line. Higher means less typical Verilog.
func (lm *NGramLM) Surprisal(toks []verilog.Token) float64 {
	if len(toks) == 0 {
		return 0
	}
	prev1, prev2 := lmBOS, lmBOS
	sum := 0.0
	for _, tok := range toks {
		t := tokenText(tok)
		p := lm.prob(prev2, prev1, t)
		if p <= 0 {
			p = 1e-9
		}
		sum += -math.Log2(p)
		prev2, prev1 = prev1, t
	}
	return sum / float64(len(toks))
}
