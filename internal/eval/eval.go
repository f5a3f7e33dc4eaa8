// Package eval implements the paper's evaluation protocol: each solver
// produces n=20 responses per SVA-Eval case; a response is effective when
// it actually solves the assertion failure — the fix is applied, the design
// recompiled and bounded-model-checked, and every assertion must pass. The
// pass@k estimator, the Table III/IV aggregations, the Fig. 3 histogram and
// the Fig. 4/5 per-category breakdowns are computed from the per-case
// effective-response counts.
package eval

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/verify"
)

// Solver is anything that answers assertion-failure problems; the trained
// model and all simulated counterpart LLMs implement it.
type Solver interface {
	Name() string
	Solve(p model.Problem, n int, temp float64, rng *rand.Rand) []model.Response
}

// Judge decides whether a response solves a case. Memoisation lives in the
// shared verification service: many of the 20 samples repeat the same fix,
// and identical fixed sources are answered from the content-addressed
// cache — across responses, cases and even pipeline stages.
type Judge struct {
	// RandomRuns bounds the verification effort per check.
	RandomRuns int
	svc        *verify.Service
}

// NewJudge returns a judge with the given verification effort, backed by
// the process-wide verification service.
func NewJudge(randomRuns int) *Judge {
	return NewJudgeWith(verify.Default(), randomRuns)
}

// NewJudgeWith returns a judge backed by a specific verification service
// (tests use a private instance to observe cache behaviour).
func NewJudgeWith(svc *verify.Service, randomRuns int) *Judge {
	if randomRuns <= 0 {
		randomRuns = 12
	}
	return &Judge{RandomRuns: randomRuns, svc: svc}
}

// Solves verifies one response against one case. It is safe to call from
// concurrent goroutines; the service bounds the actual compute.
func (j *Judge) Solves(s *dataset.SVASample, r model.Response) bool {
	if !r.FormatOK || r.Fix == "" {
		return false
	}
	fixed, ok := ApplyFix(s.BuggyCode, r.BugLine, r.BugLineText, r.Fix)
	if !ok {
		return false
	}
	// Record-only check: the judge needs pass/fail, so a persisted record
	// (or the verdict cache) answers without re-elaborating the design.
	rec, err := j.svc.CheckRecord(context.Background(), fixed, nil, verify.Options{
		Seed:       7,
		Depth:      s.CheckDepth,
		RandomRuns: j.RandomRuns,
	})
	return err == nil && rec.Passed()
}

// ApplyFix applies a response's fix to buggy source text; it delegates to
// the model package's implementation so judge and engine agree exactly.
func ApplyFix(src string, lineNo int, lineText, fix string) (string, bool) {
	return model.ApplyFix(src, lineNo, lineText, fix)
}

// PassAtK is the unbiased estimator of the paper (Section IV-D):
// 1 - C(n-c, k) / C(n, k).
//
// k is clamped to n: drawing more samples than exist is the same draw as
// taking all n. Without the clamp, k > n made the n-c < k guard fire
// vacuously and report pass@k = 1 even with zero correct responses (the
// estimator is only defined for k <= n; every k-subset of n < k responses
// is the full set). Degenerate inputs (n <= 0, k <= 0, c <= 0) report 0.
func PassAtK(n, c, k int) float64 {
	if n <= 0 || k <= 0 || c <= 0 {
		return 0
	}
	if c > n {
		c = n
	}
	if k > n {
		k = n
	}
	if n-c < k {
		return 1
	}
	// Compute 1 - prod_{i=0..k-1} (n-c-i)/(n-i) for numerical stability.
	prod := 1.0
	for i := 0; i < k; i++ {
		prod *= float64(n-c-i) / float64(n-i)
	}
	return 1 - prod
}

// CaseResult is one evaluated case: how many of the n responses solved it.
type CaseResult struct {
	ID     string
	Sample *dataset.SVASample
	N      int
	C      int
}

// Evaluate runs a solver over a benchmark with the paper's protocol
// (n responses per case at the given temperature) and judges every
// response. Sampling stays sequential (each case owns a deterministic
// rng), but the n verifications per case run concurrently through the
// judge's bounded service pool; the per-case count is order-independent,
// so results are identical to a sequential pass for a fixed seed.
func Evaluate(solver Solver, bench []dataset.SVASample, judge *Judge, n int, temp float64, seed int64) []CaseResult {
	out := make([]CaseResult, len(bench))
	for i := range bench {
		s := &bench[i]
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		resp := solver.Solve(model.ProblemOf(s), n, temp, rng)
		var c atomic.Int64
		var wg sync.WaitGroup
		for _, r := range resp {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				if judge.Solves(s, r) {
					c.Add(1)
				}
			}()
		}
		wg.Wait()
		out[i] = CaseResult{ID: s.ID, Sample: s, N: n, C: int(c.Load())}
	}
	return out
}

// MeanPassAtK averages the pass@k estimator over cases.
func MeanPassAtK(results []CaseResult, k int) float64 {
	if len(results) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range results {
		sum += PassAtK(r.N, r.C, k)
	}
	return sum / float64(len(results))
}

// Histogram bins cases by their number of correct responses c = 0..n,
// the Fig. 3 visualisation.
func Histogram(results []CaseResult, n int) []int {
	h := make([]int, n+1)
	for _, r := range results {
		c := r.C
		if c > n {
			c = n
		}
		h[c]++
	}
	return h
}

// FilterByOrigin selects results whose sample has the given origin
// ("machine" or "human").
func FilterByOrigin(results []CaseResult, origin string) []CaseResult {
	var out []CaseResult
	for _, r := range results {
		if r.Sample.Origin == origin {
			out = append(out, r)
		}
	}
	return out
}

// FilterByType selects results carrying the given Table I label.
func FilterByType(results []CaseResult, label string) []CaseResult {
	var out []CaseResult
	for _, r := range results {
		for _, l := range r.Sample.TypeLabels() {
			if l == label {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

// FilterByBin selects results in the given Table II length bin.
func FilterByBin(results []CaseResult, bin int) []CaseResult {
	var out []CaseResult
	for _, r := range results {
		if r.Sample.BinIndex() == bin {
			out = append(out, r)
		}
	}
	return out
}

// Breakdown computes pass@k per bug-type label and per length bin, the
// Fig. 4 / Fig. 5 series.
type Breakdown struct {
	ByType map[string][2]float64 // label -> {pass@1, pass@5}
	ByBin  [][2]float64          // bin index -> {pass@1, pass@5}
}

// BreakdownOf computes the full breakdown for a result set. It iterates
// the paper's evaluation label set (EvalTypeLabels): train-only classes
// never appear in benchmark results.
func BreakdownOf(results []CaseResult) Breakdown {
	b := Breakdown{ByType: map[string][2]float64{}}
	for _, label := range dataset.EvalTypeLabels() {
		sub := FilterByType(results, label)
		b.ByType[label] = [2]float64{MeanPassAtK(sub, 1), MeanPassAtK(sub, 5)}
	}
	nBins := len(corpus.LengthBins) + 1
	b.ByBin = make([][2]float64, nBins)
	for i := 0; i < nBins; i++ {
		sub := FilterByBin(results, i)
		b.ByBin[i] = [2]float64{MeanPassAtK(sub, 1), MeanPassAtK(sub, 5)}
	}
	return b
}

// RelativeDecline returns the average relative drop between machine and
// human subsets for a metric, the RQ3 statistic (paper: ~19% for pass@1,
// ~15% for pass@5).
func RelativeDecline(machine, human []CaseResult, k int) float64 {
	pm := MeanPassAtK(machine, k)
	ph := MeanPassAtK(human, k)
	if pm == 0 {
		return 0
	}
	return math.Max(0, (pm-ph)/pm)
}
