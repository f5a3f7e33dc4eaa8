// Command benchmark measures the reproduction end to end and layer by
// layer, on four workloads: the cmd/augment dataset pipeline, the pass@k
// judge, and cmd/serve under /check and /stimulus traffic. BENCHMARK.json
// lists the two whose set-up and peak memory hold its bounds (augment and
// serve-stimulus); a default run measures those. Every measured run
// executes in fresh processes (the real cmd/augment and cmd/serve
// binaries, or a fresh child of this program for the judge), because the
// verification layer's process-wide verdict cache would otherwise answer a
// second run from memory. See README.md for the workloads, the metrics and
// how to compare two result files.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh                          # BENCHMARK.json's workloads, 3 rounds
//	bash benchmark/run.sh -workload judge -seed 977
//	bash benchmark/run.sh -trace 1 -trace-dir /tmp/traces
//	bash benchmark/run.sh -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Metrics are the BENCHMARK.json metrics: end-to-end for a measured
	// run, per-layer for a traced one.
	Metrics map[string]metric `json:"metrics"`
	// Extra holds workload-specific figures beside the shared metric set
	// (designs/s, tier shares, batched fraction, ...).
	Extra map[string]metric `json:"extra,omitempty"`
	// Samples keeps the raw per-operation values behind the medians.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Digest fingerprints the run's outputs (see the correctness gates).
	Digest string `json:"digest,omitempty"`
	// Problems lists every failed correctness gate.
	Problems []string `json:"problems,omitempty"`
}

func newRun(w string, seed int64) *runResult {
	return &runResult{Workload: w, Seed: seed, Correct: true,
		Metrics: map[string]metric{}, Extra: map[string]metric{}, Samples: map[string][]float64{}}
}

// fail records a failed correctness gate.
func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *runResult) set(name string, v float64, unit string)   { r.Metrics[name] = metric{v, unit} }
func (r *runResult) extra(name string, v float64, unit string) { r.Extra[name] = metric{v, unit} }

// setTimes reports a run's time metrics from its set-up time, work per
// second and per-operation latencies in milliseconds. Only the set-up time
// is an end-to-end metric. Other tenants of the shared host these bounds
// were set on slow every compute-bound process by up to a half for minutes
// at a time, so throughput and latency move by more than any bound the
// format allows (see README.md, Measured spread); they are per-layer
// metrics, recorded with every measured run and reported with the traced
// run (see measuredLayer).
func (r *runResult) setTimes(setupS, workPerS float64, latMS []float64) {
	tail, pct := tailPercentile(latMS)
	r.Samples["latency_ms"] = latMS
	r.set("setup_s", setupS, "s")
	r.extra("work_per_s", workPerS, "1/s")
	r.extra("latency_p50_ms", median(latMS), "ms")
	r.extra("latency_tail_ms", tail, "ms")
	r.extra("latency_tail_pct", pct, "%")
	r.extra("latency_samples", float64(len(latMS)), "count")
}

// measuredLayer are the per-layer metrics taken from the measured runs
// rather than the traced one (see setTimes); the traced run reports their
// median over the measured runs.
var measuredLayer = []string{"work_per_s", "latency_p50_ms", "latency_tail_ms"}

// workload is one benchmark workload: measure runs it with tracing off and
// reports the end-to-end metrics; trace runs it once more with spans and
// replays its inputs layer by layer, reporting the per-layer metrics.
type workload struct {
	name    string
	measure func(b *bench, seed int64) (*runResult, error)
	trace   func(b *bench, seed int64, measured *runResult) (*runResult, *recorder, error)
}

func workloads() []workload {
	return []workload{
		{"augment", measureAugment, traceAugment},
		{"judge", measureJudge, traceJudge},
		{"serve-check", measureCheck, traceCheck},
		{"serve-stimulus", measureStimulus, traceStimulus},
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchmark: ")
	if role := os.Getenv(childEnv); role != "" {
		if err := runChild(role, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		log.Print(err)
	}
	os.Exit(code)
}

// run parses the flags and executes the requested mode, returning the
// process exit code.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		only     = fs.String("workload", "", "run only these workloads, comma-separated (default: the workloads BENCHMARK.json lists, round-robin)")
		seed     = fs.Int64("seed", 211, "workload seed")
		seconds  = fs.Int("seconds", 40, "length of each timed phase, in seconds")
		traceOn  = fs.Int("trace", 0, "1: after the measured runs, run each workload once more traced and report the per-layer metrics")
		traceDir = fs.String("trace-dir", "", "where traced runs write <workload>.trace.json (default .bench_build/trace)")
		runs     = fs.Int("runs", 0, "rounds over the workloads (default 3, or 1 with -workload)")
		outPath  = fs.String("out", "", "write the full result (environment, samples, quartiles) to this JSON file")
		compare  = fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
		quick    = fs.Bool("quick", false, "smoke run: tiny inputs and 1-second phases; numbers are not comparable")
		work     = fs.String("work", "", "directory for builds and temporary files (default .bench_build at the repository root)")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *traceOn != 0 && *traceOn != 1 {
		return 2, fmt.Errorf("-trace is 0 or 1, not %d", *traceOn)
	}
	root, err := findRoot()
	if err != nil {
		return 1, err
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return 1, err
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, errors.New("-compare needs two result files")
		}
		return compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1))
	}

	names := strings.Split(*only, ",")
	if *only == "" {
		names = nil
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	var selected []workload
	for _, name := range names {
		i := slices.IndexFunc(workloads(), func(w workload) bool { return w.name == name })
		if i < 0 {
			return 2, fmt.Errorf("unknown workload %q", name)
		}
		selected = append(selected, workloads()[i])
	}
	if *runs <= 0 {
		*runs = 3
		if *only != "" {
			*runs = 1
		}
	}
	if *work == "" {
		*work = filepath.Join(root, ".bench_build")
	}
	if *traceDir == "" {
		*traceDir = filepath.Join(*work, "trace")
	}
	b, err := newBench(root, *work, time.Duration(*seconds)*time.Second, *quick)
	if err != nil {
		return 1, err
	}
	defer b.close()

	res := &resultFile{Env: environment(root), Seed: *seed, Seconds: int(b.seconds / time.Second), Quick: *quick,
		Workloads: map[string]*workloadResult{}}
	for _, w := range selected {
		res.Workloads[w.name] = &workloadResult{}
	}
	// Round-robin: every workload runs once per round, so slow drifts of
	// the machine spread evenly over the workloads.
	for round := 0; round < *runs; round++ {
		for _, w := range selected {
			log.Printf("%s: round %d/%d", w.name, round+1, *runs)
			r, err := w.measure(b, *seed)
			if err != nil {
				return 1, fmt.Errorf("%s: %w", w.name, err)
			}
			if err := spec.check(r, false); err != nil {
				return 1, err
			}
			res.Workloads[w.name].Runs = append(res.Workloads[w.name].Runs, r)
		}
	}
	if *traceOn == 1 {
		for _, w := range selected {
			log.Printf("%s: traced run", w.name)
			wr := res.Workloads[w.name]
			r, rec, err := w.trace(b, *seed, wr.Runs[len(wr.Runs)-1])
			if err != nil {
				return 1, fmt.Errorf("%s trace: %w", w.name, err)
			}
			for _, name := range measuredLayer {
				var vs []float64
				for _, m := range wr.Runs {
					vs = append(vs, m.Extra[name].Value)
				}
				r.set(name, median(vs), wr.Runs[0].Extra[name].Unit)
			}
			if err := spec.check(r, true); err != nil {
				return 1, err
			}
			spans := rec.snapshot()
			tf := traceFile{Workload: w.name, Seed: *seed, Metrics: mergeMetrics(r.Metrics, r.Extra),
				Layers: summarize(spans), Spans: spans}
			if err := writeTrace(*traceDir, tf); err != nil {
				return 1, err
			}
			wr.Trace = r
		}
	}
	res.summarize()
	printTable(stdout, spec, res)
	if *outPath != "" {
		if err := writeJSON(*outPath, res); err != nil {
			return 1, err
		}
	}
	last := res.lastLine(*traceOn == 1)
	if err := json.NewEncoder(stdout).Encode(last); err != nil {
		return 1, err
	}
	if !last.Correct {
		return 1, errors.New("a correctness gate failed (see problems above)")
	}
	return 0, nil
}

// findRoot locates the repository root: the nearest directory at or above
// the working directory that holds cmd/serve.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "serve")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("repository root (with cmd/serve and go.mod) not found above the working directory")
		}
		dir = parent
	}
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env       env                        `json:"env"`
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Quick     bool                       `json:"quick,omitempty"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// workloadResult holds a workload's runs and, per metric, the summary over
// them.
type workloadResult struct {
	Runs    []*runResult       `json:"runs"`
	Trace   *runResult         `json:"trace,omitempty"`
	Summary map[string]summary `json:"summary"`
}

// summary is one metric over a workload's runs.
type summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func summarizeValues(unit string, vs []float64) summary {
	q1, q3 := quartiles(vs)
	return summary{Unit: unit, Values: vs, Median: median(vs), Q1: q1, Q3: q3}
}

// summarize computes every metric's median and quartiles over the runs;
// the traced run's per-layer metrics are summarised as single values.
func (f *resultFile) summarize() {
	for _, wr := range f.Workloads {
		wr.Summary = map[string]summary{}
		vals := map[string][]float64{}
		units := map[string]string{}
		for _, r := range wr.Runs {
			for name, m := range mergeMetrics(r.Metrics, r.Extra) {
				vals[name] = append(vals[name], m.Value)
				units[name] = m.Unit
			}
		}
		if wr.Trace != nil {
			for name, m := range wr.Trace.Metrics {
				vals[name] = append(vals[name], m.Value)
				units[name] = m.Unit
			}
		}
		for name, vs := range vals {
			wr.Summary[name] = summarizeValues(units[name], vs)
		}
	}
}

// lastLine is the one-line result: the medians of the selected metric set
// (end-to-end, or per-layer with -trace 1). With more than one workload
// the metric names are prefixed with the workload name.
func (f *resultFile) lastLine(traced bool) lineResult {
	out := lineResult{Correct: true, Metrics: map[string]metric{}}
	names := f.names()
	for _, w := range names {
		wr := f.Workloads[w]
		runs := wr.Runs
		if traced {
			runs = append(runs[:len(runs):len(runs)], wr.Trace)
		}
		for _, r := range runs {
			out.Attempted += r.Attempted
			out.Failed += r.Failed
			if !r.Correct {
				out.Correct = false
			}
		}
		src := wr.Runs[0].Metrics
		if traced {
			src = wr.Trace.Metrics
		}
		for name, m := range src {
			key := name
			if len(names) > 1 {
				key = w + "/" + name
			}
			out.Metrics[key] = metric{wr.Summary[name].Median, m.Unit}
		}
	}
	return out
}

func (f *resultFile) names() []string {
	var names []string
	for w := range f.Workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	return names
}

// lineResult is the last line of standard output.
type lineResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printTable prints every metric by name with its unit: median [q1, q3]
// over the runs, followed by any failed correctness gate.
func printTable(w io.Writer, spec *benchSpec, f *resultFile) {
	fmt.Fprintf(w, "# %s/%s, %s, %d CPUs (GOMAXPROCS %d), %s, commit %s, seed %d, %d s phases\n",
		f.Env.GOOS, f.Env.GOARCH, f.Env.CPU, f.Env.NumCPU, f.Env.GOMAXPROCS, f.Env.GoVersion, f.Env.Commit, f.Seed, f.Seconds)
	for _, name := range f.names() {
		wr := f.Workloads[name]
		fmt.Fprintf(w, "%s (%d runs)\n", name, len(wr.Runs))
		var keys []string
		for k := range wr.Summary {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			ri, rj := spec.rank(keys[i]), spec.rank(keys[j])
			if ri != rj {
				return ri < rj
			}
			return keys[i] < keys[j]
		})
		for _, k := range keys {
			s := wr.Summary[k]
			fmt.Fprintf(w, "  %-34s %14.6g %-6s [%.6g, %.6g]\n", k, s.Median, s.Unit, s.Q1, s.Q3)
		}
		runs := wr.Runs
		if wr.Trace != nil {
			runs = append(runs[:len(runs):len(runs)], wr.Trace)
		}
		for _, r := range runs {
			for _, p := range r.Problems {
				fmt.Fprintf(w, "  PROBLEM: %s\n", p)
			}
		}
	}
}

func mergeMetrics(ms ...map[string]metric) map[string]metric {
	out := map[string]metric{}
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// env records the machine and build a result was measured on.
type env struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func environment(root string) env {
	e := env{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: "unknown", NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: gitCommit(root)}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}
