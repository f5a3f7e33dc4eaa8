package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/formal"
	"repro/internal/llm"
	"repro/internal/model"
	"repro/internal/verify"
)

// judgeDigest pins the judge's per-solver (N, C) vectors at seed 211 (see
// ncDigest).
const judgeDigest = "45de1b0b60230bbd7cad75134eba820b80293318bb44152cc0dbc186eaa582f5"

// The judge protocol of cmd/bench (Tables III and IV): n responses per case
// at temperature 0.2, judged at verification effort 10.
const (
	judgeN    = 20
	judgeTemp = 0.2
	judgeRuns = 10
)

// judgeRequest is what the parent hands a judge child.
type judgeRequest struct {
	Fixture string `json:"fixture"`
	Seed    int64  `json:"seed"`
	Quick   bool   `json:"quick,omitempty"`
	// Trace runs the benchmark's own judging loop with spans, then replays
	// the judged sources layer by layer into a disk store in StoreDir.
	Trace    bool   `json:"trace,omitempty"`
	StoreDir string `json:"store_dir,omitempty"`
}

// judgeResponse is what a judge child reports.
type judgeResponse struct {
	SetupS float64 `json:"setup_s"`
	// EvalS is the time to evaluate every solver on SVA-Eval: the pass@k
	// rows of Tables III and IV.
	EvalS     float64 `json:"eval_s"`
	Responses int     `json:"responses"`
	// NC holds each solver's (N, C) per case, machine cases then human.
	NC     map[string][][2]int `json:"nc,omitempty"`
	Digest string              `json:"digest,omitempty"`

	// Traced children only.
	Metrics map[string]metric `json:"metrics,omitempty"`
	Extra   map[string]metric `json:"extra,omitempty"`
	Misses  uint64            `json:"misses,omitempty"`
	Checks  int               `json:"checks,omitempty"`
	Spans   []span            `json:"spans,omitempty"`
}

// measureJudge runs fresh judge children, at least b.minProcs() and until
// their wall time (set-up included) fills the timed phase; each one also
// gives a set-up sample. Work is judged responses per second; latency is
// one child's whole evaluation, every solver's pass@k row. Finer units were
// tried: per-case times swing with garbage-collection pauses in the child
// (a median of 4.4 ms in one child and 6.0 ms in the next, same inputs),
// and the median of the nine per-solver rows jumps between two solvers
// whose costs are close (spread 0.16 over ten seeds).
func measureJudge(b *bench, seed int64) (*runResult, error) {
	fixture, err := b.judgeFixture()
	if err != nil {
		return nil, err
	}
	r := newRun("judge", seed)
	var setups, perS, evalMS, rss []float64
	var measured time.Duration
	for len(perS) < b.minProcs() || measured < b.seconds {
		var res judgeResponse
		p, err := b.runChildProc("judge", judgeRequest{Fixture: fixture, Seed: seed, Quick: b.quick}, &res)
		if err != nil {
			return nil, err
		}
		measured += p.wall
		r.Attempted += res.Responses
		setups = append(setups, res.SetupS)
		perS = append(perS, float64(res.Responses)/res.EvalS)
		evalMS = append(evalMS, res.EvalS*1e3)
		rss = append(rss, p.rssMB)
		want := r.Digest
		if seed == fixtureSeed && !b.quick {
			want = judgeDigest
		}
		if r.Digest == "" {
			r.Digest = res.Digest
		}
		if want != "" && res.Digest != want {
			r.Failed += res.Responses
			r.fail("judge (N, C) digest %s, want %s", res.Digest, want)
		}
	}
	r.setTimes(median(setups), median(perS), evalMS)
	r.set("peak_rss_mb", median(rss), "MiB")
	r.extra("judge.responses_per_s", median(perS), "1/s")
	r.extra("error_ratio", float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio")
	return r, nil
}

// traceJudge runs one traced judge child and checks that its own judging
// loop reproduces eval.Evaluate's (N, C) vectors from the measured run.
func traceJudge(b *bench, seed int64, measured *runResult) (*runResult, *recorder, error) {
	fixture, err := b.judgeFixture()
	if err != nil {
		return nil, nil, err
	}
	storeDir, err := b.tempDir("store-")
	if err != nil {
		return nil, nil, err
	}
	var res judgeResponse
	if _, err := b.runChildProc("judge", judgeRequest{Fixture: fixture, Seed: seed, Quick: b.quick,
		Trace: true, StoreDir: storeDir}, &res); err != nil {
		return nil, nil, err
	}
	r := newRun("judge", seed)
	r.Attempted = res.Responses
	r.Metrics, r.Extra = res.Metrics, res.Extra
	if res.Digest != measured.Digest {
		r.Failed = r.Attempted
		r.fail("traced judging loop (N, C) digest %s differs from eval.Evaluate's %s", res.Digest, measured.Digest)
	}
	traceOverhead(r, measured, float64(res.Responses)/res.EvalS, res.Checks, int(res.Misses))
	rec := newRecorder()
	rec.spans = res.Spans
	return r, rec, nil
}

// judgeChild loads the fixture, trains the three model stages and
// evaluates every solver on SVA-Eval (machine then human cases).
func judgeChild(req judgeRequest) (*judgeResponse, error) {
	var rec *recorder
	if req.Trace {
		rec = newRecorder()
	}
	stage := func(name string, fn func()) {
		if rec == nil {
			fn()
			return
		}
		rec.timed(nil, name, func() string { fn(); return "" })
	}
	start := time.Now()
	var pt []dataset.PTEntry
	var vb []dataset.BugEntry
	var train, machine, human []dataset.SVASample
	var err error
	stage("dataset.load", func() { pt, vb, train, machine, human, err = loadFixture(req.Fixture) })
	if err != nil {
		return nil, err
	}
	dpoTrain := train
	if req.Quick {
		machine, human = machine[:min(3, len(machine))], human[:min(3, len(human))]
		dpoTrain = train[:min(40, len(train))]
	}
	base, sft, solver := model.New(), model.New(), model.New()
	stage("model.pretrain", func() { sft.Pretrain(pt); solver.Pretrain(pt) })
	stage("model.sft", func() { sft.SFT(train, vb); solver.SFT(train, vb) })
	stage("model.dpo", func() { solver.DPO(dpoTrain, judgeN, judgeTemp, 0.1, req.Seed*7+3) })
	res := &judgeResponse{SetupS: time.Since(start).Seconds(), NC: map[string][][2]int{}}

	solvers := []eval.Solver{base, sft, solver}
	for _, c := range llm.Counterparts() {
		solvers = append(solvers, c)
	}
	svc := verify.New(0)
	judge := eval.NewJudgeWith(svc, judgeRuns)
	tj := &tracedJudge{rec: rec, svc: svc, depth: map[string]int{}}
	evalStart := time.Now()
	for _, s := range solvers {
		for _, set := range [][]dataset.SVASample{machine, human} {
			var results []eval.CaseResult
			if rec == nil {
				results = eval.Evaluate(s, set, judge, judgeN, judgeTemp, req.Seed+99)
			} else {
				results = tj.evaluate(s, set, req.Seed+99)
			}
			for _, cr := range results {
				res.NC[s.Name()] = append(res.NC[s.Name()], [2]int{cr.N, cr.C})
				res.Responses += cr.N
			}
		}
	}
	res.EvalS = time.Since(evalStart).Seconds()
	res.Digest = ncDigest(solvers, res.NC)
	if rec != nil {
		if err := tj.finish(req, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// loadFixture reads the five datasets cmd/augment wrote.
func loadFixture(dir string) (pt []dataset.PTEntry, vb []dataset.BugEntry, train, machine, human []dataset.SVASample, err error) {
	if pt, err = dataset.Load[dataset.PTEntry](dir, "verilog_pt"); err != nil {
		return
	}
	if vb, err = dataset.Load[dataset.BugEntry](dir, "verilog_bug"); err != nil {
		return
	}
	if train, err = dataset.Load[dataset.SVASample](dir, "sva_bug"); err != nil {
		return
	}
	if machine, err = dataset.Load[dataset.SVASample](dir, "sva_eval_machine"); err != nil {
		return
	}
	human, err = dataset.Load[dataset.SVASample](dir, "sva_eval_human")
	return
}

// ncDigest hashes every solver's (N, C) vector in solver order.
func ncDigest(solvers []eval.Solver, nc map[string][][2]int) string {
	h := sha256.New()
	for _, s := range solvers {
		fmt.Fprintf(h, "%s:%v\n", s.Name(), nc[s.Name()])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tracedJudge is the benchmark's own judging loop, equivalent to
// eval.Evaluate with eval.Judge: model.Solve, then for every response
// eval.ApplyFix and Service.CheckRecord, fanned out concurrently, each call
// inside a span.
type tracedJudge struct {
	rec *recorder
	svc *verify.Service

	mu    sync.Mutex
	depth map[string]int // every judged source, with its check depth
}

// evaluate mirrors eval.Evaluate: cases in order, case i sampled with its
// own rng seeded seed + i*7919.
func (tj *tracedJudge) evaluate(s eval.Solver, bench []dataset.SVASample, seed int64) []eval.CaseResult {
	out := make([]eval.CaseResult, len(bench))
	for i := range bench {
		n, c := tj.judgeCase(s, &bench[i], seed+int64(i)*7919)
		out[i] = eval.CaseResult{ID: bench[i].ID, Sample: &bench[i], N: n, C: c}
	}
	return out
}

func (tj *tracedJudge) judgeCase(s eval.Solver, sample *dataset.SVASample, seed int64) (n, c int) {
	cs := tj.rec.start(nil, "eval.case")
	defer cs.end("")
	rng := rand.New(rand.NewSource(seed))
	var resp []model.Response
	tj.rec.timed(cs, "model.solve", func() string {
		resp = s.Solve(model.ProblemOf(sample), judgeN, judgeTemp, rng)
		return ""
	})
	var solved atomic.Int64
	var wg sync.WaitGroup
	for _, r := range resp {
		if !r.FormatOK || r.Fix == "" {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fixed string
			var ok bool
			tj.rec.timed(cs, "eval.applyfix", func() string {
				fixed, ok = eval.ApplyFix(sample.BuggyCode, r.BugLine, r.BugLineText, r.Fix)
				if !ok {
					return "fix does not apply"
				}
				return ""
			})
			if !ok {
				return
			}
			tj.mu.Lock()
			tj.depth[fixed] = sample.CheckDepth
			tj.mu.Unlock()
			tj.rec.timed(cs, "eval.judge", func() string {
				rec, err := tj.svc.CheckRecord(context.Background(), fixed, nil,
					verify.Options{Seed: 7, Depth: sample.CheckDepth, RandomRuns: judgeRuns})
				if err == nil && rec.Passed() {
					solved.Add(1)
				}
				return errString(err)
			})
		}()
	}
	wg.Wait()
	return len(resp), int(solved.Load())
}

// finish reports the traced loop's counters and replays the judged
// sources (every one was a verification miss once) through the layers; at
// most 300 of them, evenly spaced in sorted order, to bound the replay.
func (tj *tracedJudge) finish(req judgeRequest, res *judgeResponse) error {
	r := newRun("judge", req.Seed)
	m := tj.svc.Metrics()
	verifyRatios(r, m.Hits+m.Misses+m.Coalesced, m.Misses, m.Coalesced)
	res.Misses = m.Misses

	srcs := make([]string, 0, len(tj.depth))
	for s := range tj.depth {
		srcs = append(srcs, s)
	}
	sort.Strings(srcs)
	limit := 300
	if req.Quick {
		limit = 20
	}
	rp, err := newReplayer(tj.rec, req.Seed, req.StoreDir)
	if err != nil {
		return err
	}
	step := max(1, (len(srcs)+limit-1)/limit)
	for i := 0; i < len(srcs); i += step {
		rp.item(replayItem{src: srcs[i], opts: formal.Options{Seed: 7, Depth: tj.depth[srcs[i]], RandomRuns: judgeRuns}})
	}
	if err := rp.close(); err != nil {
		return err
	}
	rp.layerMetrics(r)
	spans := tj.rec.snapshot()
	var trainMS float64
	for _, s := range spans {
		switch s.Name {
		case "dataset.load", "model.pretrain", "model.sft", "model.dpo":
			trainMS += float64(s.End-s.Start) / 1e6
		}
	}
	r.extra("model.train_s", trainMS/1e3, "s")
	r.extra("model.solve_ms", medianUS(spans, "model.solve")/1e3, "ms")
	r.extra("eval.applyfix_us", medianUS(spans, "eval.applyfix"), "us")
	r.extra("eval.judge_us", medianUS(spans, "eval.judge"), "us")
	res.Metrics, res.Extra, res.Checks, res.Spans = r.Metrics, r.Extra, rp.checks, spans
	return nil
}
