// Package repro's root benchmarks regenerate, at reduced scale, the
// measurement behind every table and figure of the paper (run cmd/bench
// for the full-scale report) plus three ablations of this reproduction's
// own design choices: BenchmarkAblationLocalization, BenchmarkAblationCoT
// and BenchmarkFormalStrategies.
// Accuracy-style results are attached as custom benchmark metrics
// (pass@1, pass@5, coverage) so `go test -bench` output carries the same
// series the paper plots.
package repro

import (
	"context"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/augment"
	"repro/internal/bugs"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/formal"
	"repro/internal/llm"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/sva"
)

// fixture builds the shared reduced-scale experiment once: datasets from a
// capped pipeline run, the three trained model stages, and the human cases.
type fixture struct {
	out    *augment.Output
	human  []dataset.SVASample
	base   *model.Model
	sft    *model.Model
	solver *model.Model
	judge  *eval.Judge
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func getFixture(b testing.TB) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		out, err := augment.Run(augment.Config{Seed: 1, MutationsPerDesign: 8, RandomRuns: 8})
		if err != nil {
			fixErr = err
			return
		}
		human, err := augment.BuildHumanEval(augment.Config{Seed: 5, RandomRuns: 16})
		if err != nil {
			fixErr = err
			return
		}
		f := &fixture{out: out, human: human, judge: eval.NewJudge(8)}
		f.base = model.New()
		f.sft = model.New()
		f.sft.Pretrain(out.VerilogPT)
		f.sft.SFT(out.SVABug, out.VerilogBug)
		f.solver = model.New()
		f.solver.Pretrain(out.VerilogPT)
		f.solver.SFT(out.SVABug, out.VerilogBug)
		f.solver.DPO(out.SVABug, 8, 0.2, 0.1, 77)
		fix = f
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fix
}

// evalSlice returns a bounded slice of the machine benchmark.
func (f *fixture) evalSlice(n int) []dataset.SVASample {
	if n > len(f.out.SVAEvalMachine) {
		n = len(f.out.SVAEvalMachine)
	}
	return f.out.SVAEvalMachine[:n]
}

func reportPass(b *testing.B, results []eval.CaseResult) {
	b.ReportMetric(100*eval.MeanPassAtK(results, 1), "pass@1_%")
	b.ReportMetric(100*eval.MeanPassAtK(results, 5), "pass@5_%")
}

// BenchmarkTable1BugTaxonomy measures the typed mutation enumeration that
// defines the Table I taxonomy.
func BenchmarkTable1BugTaxonomy(b *testing.B) {
	golden := corpus.Accu(8, 2).Module
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += len(bugs.Enumerate(golden, 0))
	}
	b.ReportMetric(float64(total)/float64(b.N), "mutations")
}

// BenchmarkTable2Distribution measures the Table II aggregation over the
// generated datasets.
func BenchmarkTable2Distribution(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := dataset.Distribute(f.out.SVABug)
		if d.Total == 0 {
			b.Fatal("empty distribution")
		}
	}
	d := dataset.Distribute(f.out.SVABug)
	b.ReportMetric(float64(d.Total), "samples")
	b.ReportMetric(float64(d.ByType["Direct"]), "direct")
}

// BenchmarkTable3PassAtK regenerates the Table III measurement (base vs
// SFT vs AssertSolver) on an evaluation slice.
func BenchmarkTable3PassAtK(b *testing.B) {
	f := getFixture(b)
	bench := f.evalSlice(12)
	for _, tc := range []struct {
		name string
		m    *model.Model
	}{
		{"Base", f.base}, {"SFT", f.sft}, {"AssertSolver", f.solver},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var last []eval.CaseResult
			for i := 0; i < b.N; i++ {
				last = eval.Evaluate(tc.m, bench, f.judge, 10, 0.2, 99)
			}
			reportPass(b, last)
		})
	}
}

// BenchmarkTable4ModelComparison regenerates the Table IV comparison
// against the counterpart solvers.
func BenchmarkTable4ModelComparison(b *testing.B) {
	f := getFixture(b)
	bench := f.evalSlice(10)
	solvers := []eval.Solver{f.solver}
	for _, c := range llm.Counterparts() {
		solvers = append(solvers, c)
	}
	for _, s := range solvers {
		b.Run(s.Name(), func(b *testing.B) {
			var last []eval.CaseResult
			for i := 0; i < b.N; i++ {
				last = eval.Evaluate(s, bench, f.judge, 10, 0.2, 99)
			}
			reportPass(b, last)
		})
	}
}

// BenchmarkFig3Histogram regenerates the correct-answer histogram.
func BenchmarkFig3Histogram(b *testing.B) {
	f := getFixture(b)
	bench := f.evalSlice(12)
	res := eval.Evaluate(f.solver, bench, f.judge, 10, 0.2, 99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := eval.Histogram(res, 10)
		if len(h) != 11 {
			b.Fatal("bad histogram")
		}
	}
	h := eval.Histogram(res, 10)
	b.ReportMetric(float64(h[0]), "c0_cases")
	b.ReportMetric(float64(h[10]), "cmax_cases")
}

// BenchmarkFig4BugTypes regenerates the per-bug-type breakdown.
func BenchmarkFig4BugTypes(b *testing.B) {
	f := getFixture(b)
	res := eval.Evaluate(f.solver, f.evalSlice(14), f.judge, 10, 0.2, 99)
	b.ResetTimer()
	var bd eval.Breakdown
	for i := 0; i < b.N; i++ {
		bd = eval.BreakdownOf(res)
	}
	b.ReportMetric(100*bd.ByType["Direct"][0], "direct_pass@1_%")
	b.ReportMetric(100*bd.ByType["Indirect"][0], "indirect_pass@1_%")
}

// BenchmarkFig4CodeLength regenerates the per-length breakdown.
func BenchmarkFig4CodeLength(b *testing.B) {
	f := getFixture(b)
	res := eval.Evaluate(f.solver, f.evalSlice(14), f.judge, 10, 0.2, 99)
	b.ResetTimer()
	var bd eval.Breakdown
	for i := 0; i < b.N; i++ {
		bd = eval.BreakdownOf(res)
	}
	b.ReportMetric(100*bd.ByBin[0][0], "bin0_pass@1_%")
}

// BenchmarkFig5Ablation contrasts SFT and AssertSolver (the DPO ablation)
// on the same slice, the Fig. 5 measurement.
func BenchmarkFig5Ablation(b *testing.B) {
	f := getFixture(b)
	bench := f.evalSlice(12)
	for _, tc := range []struct {
		name string
		m    *model.Model
	}{
		{"SFT", f.sft}, {"DPO", f.solver},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var last []eval.CaseResult
			for i := 0; i < b.N; i++ {
				last = eval.Evaluate(tc.m, bench, f.judge, 10, 0.2, 99)
			}
			reportPass(b, last)
		})
	}
}

// BenchmarkAblationLocalization drops one localiser feature family at a
// time (mentions, cone, lm) and reports golden-hit accuracy.
func BenchmarkAblationLocalization(b *testing.B) {
	f := getFixture(b)
	bench := f.evalSlice(14)
	for _, drop := range []string{"", "mentions", "cone", "lm"} {
		name := drop
		if name == "" {
			name = "full"
		}
		b.Run(name, func(b *testing.B) {
			f.sft.Loc.DropFeature = drop
			defer func() { f.sft.Loc.DropFeature = "" }()
			hits := 0
			total := 0
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(5))
				for j := range bench {
					s := &bench[j]
					for _, r := range f.sft.Solve(model.ProblemOf(s), 3, 0.2, rng) {
						total++
						if model.Correct(r, s) {
							hits++
						}
					}
				}
			}
			if total > 0 {
				b.ReportMetric(100*float64(hits)/float64(total), "golden_hit_%")
			}
		})
	}
}

// BenchmarkAblationCoT contrasts SFT trained on all samples versus only
// the samples whose chain of thought passed Stage-3 validation.
func BenchmarkAblationCoT(b *testing.B) {
	f := getFixture(b)
	var cotOnly []dataset.SVASample
	for _, s := range f.out.SVABug {
		if s.CoTValid {
			cotOnly = append(cotOnly, s)
		}
	}
	bench := f.evalSlice(12)
	for _, tc := range []struct {
		name  string
		train []dataset.SVASample
	}{
		{"all_samples", f.out.SVABug}, {"cot_valid_only", cotOnly},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := model.New()
			m.SFT(tc.train, f.out.VerilogBug)
			var last []eval.CaseResult
			for i := 0; i < b.N; i++ {
				last = eval.Evaluate(m, bench, f.judge, 10, 0.2, 99)
			}
			reportPass(b, last)
		})
	}
}

// BenchmarkFormalStrategies contrasts the verifier's exploration
// strategies: sequence-exhaustive designs versus the directed+random
// fallback. The _4state row runs the exhaustive strategy in the four-state
// value domain.
func BenchmarkFormalStrategies(b *testing.B) {
	tiny := corpus.EdgeDetect()  // 1-bit input: exhaustive sequences
	big := corpus.Counter(8, 23) // wide input space: directed+random
	// EdgeDetect fails from its x power-up state; this counter passes
	// four-state exhaustively.
	tiny4 := corpus.Counter(3, 5)
	for _, tc := range []struct {
		name string
		bp   *corpus.Blueprint
		four bool
	}{
		{"exhaustive", tiny, false}, {"directed_random", big, false}, {"exhaustive_4state", tiny4, true},
	} {
		d, diags, err := compile.Compile(tc.bp.Source())
		if err != nil || compile.HasErrors(diags) {
			b.Fatal("fixture broken")
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *formal.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = formal.Check(context.Background(), d, formal.Options{Seed: 1, Depth: tc.bp.CheckDepth(12), RandomRuns: 12, FourState: tc.four})
				if err != nil || !res.Pass {
					b.Fatal("golden failed")
				}
			}
			b.ReportMetric(float64(res.Runs), "runs")
		})
	}
}

// simBenchFixture builds the stimulus shared by the simulator benchmarks.
func simBenchFixture(b *testing.B) (*compile.Design, sim.VecStimulus) {
	b.Helper()
	d, diags, err := compile.Compile(corpus.Pipeline(10, 8).Source())
	if err != nil || compile.HasErrors(diags) {
		b.Fatal("fixture broken")
	}
	stim := sim.VecStimulus{
		Inputs: []*compile.Signal{d.Signals["valid_in"], d.Signals["data_in"]},
		Rows:   make([][]uint64, 64),
	}
	for i := range stim.Rows {
		stim.Rows[i] = []uint64{uint64(i & 1), uint64(i * 37)}
	}
	return d, stim
}

// BenchmarkSimulator measures raw cycle throughput of the simulator on the
// compiled slot-indexed execution plan (the path sim.RunVecCtx takes for a
// plannable design), in each value domain.
func BenchmarkSimulator(b *testing.B) { benchSimModes(b, sim.RunVecCtx) }

// BenchmarkSimulatorReference measures the interpretive reference path on
// the same workload, so the plan's speedup stays visible in every report.
func BenchmarkSimulatorReference(b *testing.B) { benchSimModes(b, sim.RunReferenceCtx) }

// benchSimModes runs the simulator fixture through run and sva.Check, once
// per value domain as the TwoState and FourState sub-benchmarks.
func benchSimModes(b *testing.B, run func(context.Context, *compile.Design, sim.VecStimulus, sim.Mode) (*sim.Trace, error)) {
	d, stim := simBenchFixture(b)
	for _, m := range []struct {
		name string
		mode sim.Mode
	}{{"TwoState", sim.TwoState}, {"FourState", sim.FourState}} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr, err := run(context.Background(), d, stim, m.mode)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sva.Check(tr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(stim.Rows)), "cycles/op")
		})
	}
}

// BenchmarkAugmentPipeline measures the data-pipeline figures of merit:
// end-to-end corpus generation (the procedural generator feeding the
// streaming Stage 1-3 pipeline, at reduced scale) and dataset
// serialisation throughput in each sharded on-disk format (write plus
// read-back of the fixture sample set). The generate sub-benchmark runs
// every golden compile and mutant check outside the shared verdict cache,
// so every iteration recomputes them.
func BenchmarkAugmentPipeline(b *testing.B) {
	b.Run("generate", func(b *testing.B) {
		const gen = 16
		var designs, samples int
		for i := 0; i < b.N; i++ {
			out, err := augment.Run(augment.Config{
				Seed:               211,
				Generate:           gen,
				MutationsPerDesign: 4,
				RandomRuns:         6,
			})
			if err != nil {
				b.Fatal(err)
			}
			designs = out.Stats.Compiled
			samples = len(out.SVABug) + len(out.SVAEvalMachine)
		}
		elapsed := b.Elapsed().Seconds()
		designsPerSec := float64(designs*b.N) / elapsed
		samplesPerSec := float64(samples*b.N) / elapsed
		b.ReportMetric(float64(designs), "designs")
		b.ReportMetric(designsPerSec, "designs/s")
		b.ReportMetric(samplesPerSec, "samples/s")
	})
	b.Run("serialize_jsonl", func(b *testing.B) { benchSerialize(b, "jsonl") })
	b.Run("serialize_bin", func(b *testing.B) { benchSerialize(b, "bin") })
}

// benchSerialize measures one round of writing the fixture sample set
// as 4 shards and streaming it back — the full serialisation cost a
// training run pays — reporting samples/s, on-disk bytes per sample and
// heap allocations per round.
func benchSerialize(b *testing.B, format string) {
	f := getFixture(b)
	samples := append(append([]dataset.SVASample{}, f.out.SVABug...), f.out.SVAEvalMachine...)
	if len(samples) == 0 {
		b.Fatal("empty fixture")
	}
	dir := b.TempDir()
	round := func() []string {
		w, err := dataset.NewWriter(dir, "bench", format, 4)
		if err != nil {
			b.Fatal(err)
		}
		for j := range samples {
			if err := w.Write(&samples[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		got, err := dataset.ReadShards[dataset.SVASample](w.Paths())
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(samples) {
			b.Fatalf("read %d of %d samples back", len(got), len(samples))
		}
		return w.Paths()
	}
	var paths []string
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths = round()
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	var onDisk int64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			b.Fatal(err)
		}
		onDisk += st.Size()
	}
	samplesPerSec := float64(len(samples)*b.N) / b.Elapsed().Seconds()
	bytesPerSample := float64(onDisk) / float64(len(samples))
	allocsPerOp := float64(m1.Mallocs-m0.Mallocs) / float64(b.N)
	b.ReportMetric(samplesPerSec, "samples/s")
	b.ReportMetric(bytesPerSample, "B/sample")
	b.ReportMetric(allocsPerOp, "allocs/op")
}

// BenchmarkElaborateFlatten measures hierarchical elaboration cost — parse,
// instance expansion with parameter overrides, name uniquification and
// flattening into the slot-indexed plan — on a multi-module corpus design.
func BenchmarkElaborateFlatten(b *testing.B) {
	src := corpus.HierFIFO(3).Source()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, diags, err := compile.Compile(src)
		if err != nil || compile.HasErrors(diags) || d == nil {
			b.Fatal("compile failed")
		}
	}
	b.SetBytes(int64(len(src)))
}

// BenchmarkCompile measures front-end throughput on the largest design.
func BenchmarkCompile(b *testing.B) {
	src := corpus.Mux(32, 2).Source()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, diags, err := compile.Compile(src)
		if err != nil || compile.HasErrors(diags) || d == nil {
			b.Fatal("compile failed")
		}
	}
	b.SetBytes(int64(len(src)))
}

// BenchmarkPlanBuild measures plan construction over the whole catalog:
// each op builds every golden's execution plan in both value domains, the
// two-state plan and its four-state lowering, from designs compiled
// outside the timer, so neither compiling nor a cached plan counts.
func BenchmarkPlanBuild(b *testing.B) {
	var srcs []string
	for _, bp := range corpus.Catalog() {
		srcs = append(srcs, bp.Source())
	}
	designs := make([]*compile.Design, len(srcs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, src := range srcs {
			d, diags, err := compile.Compile(src)
			if err != nil || compile.HasErrors(diags) || d == nil {
				b.Fatal("compile failed")
			}
			designs[j] = d
		}
		b.StartTimer()
		for _, d := range designs {
			if sim.PlanOf(d) == nil {
				b.Fatal("unplannable golden")
			}
			sim.NewVecRunner(d, sim.FourState) // builds the four-state lowering
		}
	}
	b.ReportMetric(float64(len(designs)), "designs/op")
}

// BenchmarkSolveLatency measures single-problem inference latency of the
// trained solver, the interactive-use figure of merit.
func BenchmarkSolveLatency(b *testing.B) {
	f := getFixture(b)
	s := &f.out.SVAEvalMachine[0]
	p := model.ProblemOf(s)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := f.solver.Solve(p, 20, 0.2, rng); len(got) != 20 {
			b.Fatal("bad response count")
		}
	}
}

// BenchmarkJudge measures the external verification cost per response.
func BenchmarkJudge(b *testing.B) {
	f := getFixture(b)
	s := &f.out.SVAEvalMachine[0]
	r := model.Response{BugLine: s.LineNo, BugLineText: s.BuggyLine, Fix: s.FixedLine, FormatOK: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		judge := eval.NewJudge(8) // fresh judge: no memoisation
		if !judge.Solves(s, r) {
			b.Fatal("golden fix rejected")
		}
	}
}
