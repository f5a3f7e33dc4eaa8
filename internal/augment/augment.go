// Package augment orchestrates the three-stage data-augmentation pipeline
// of Fig. 2-(I):
//
//	Stage 1 — filtering and syntax checking: degenerate sources are removed
//	  (incomplete, logic-free, duplicated), the remainder is compiled, and
//	  both compiling and non-compiling code lands in Verilog-PT, the latter
//	  with a failure analysis.
//	Stage 2 — key component generation and validation: specs are written,
//	  typed bugs are injected into each golden design, re-compiled, and
//	  bounded-model-checked against the design's validated SVAs. Bugs that
//	  trigger assertion failures become SVA samples (with logs); bugs that
//	  change behaviour without firing an assertion become Verilog-Bug
//	  entries; no-ops are discarded.
//	Stage 3 — CoT generation and validation: a chain of thought is generated
//	  for every SVA sample and kept only when it argues for the golden
//	  solution (the paper reports 74.55% validity).
//
// Finally the SVA samples are split 90/10 by module name within each code-
// length bin into SVA-Bug (train) and SVA-Eval-Machine (test).
//
// # Streaming execution
//
// The pipeline runs as a bounded-channel stream: a producer performs
// Stage 1 and feeds golden blueprints (from the fixed catalog and, when
// Config.Generate is set, the procedural generator) to a pool of Stage-2/3
// design workers, whose results a single writer goroutine re-establishes
// in production order before handing them to a Sink. Every check runs
// outside the shared verdict cache (verify.Service.Run), and live memory
// follows the checks in flight rather than the corpus, the designs queued
// or the mutants done. Every input arrives one item at a time: Stage 1
// pulls golden blueprints and defective entries as it needs them and the
// job queue holds one blueprint per worker, not compiled designs (a golden
// is compiled once, by its Stage-2 worker); a design's mutants are printed
// one at a time and held as text and labels, and a checked mutant keeps
// only the verdict fields its sample needs. cmd/augment -format bin peaks
// at about 11.9 MiB for the catalog and 13.7 MiB with 200 generated
// designs on a 2-core Xeon. The emitted stream is byte-identical for a
// fixed seed regardless of the worker count. Run collects the stream into
// an Output; RunStream hands it to a caller Sink (cmd/augment streams it
// into sharded files).
package augment

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"

	"repro/internal/bugs"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/cot"
	"repro/internal/dataset"
	"repro/internal/formal"
	"repro/internal/lint"
	"repro/internal/spec"
	"repro/internal/sva"
	"repro/internal/verify"
	"repro/internal/verilog"
)

// Config controls the pipeline.
type Config struct {
	// Seed drives every stochastic component.
	Seed int64
	// MutationsPerDesign caps bug injection per golden design (0 = all).
	MutationsPerDesign int
	// BinCaps caps mutations per design by code-length bin, shaping the
	// dataset like the paper's Table II pyramid (short code dominates).
	// Zero entries mean no per-bin cap.
	BinCaps [5]int
	// CoTCorruptRate is the chance a generated CoT derails (paper: ~25%).
	CoTCorruptRate float64
	// TrainFrac is the train share of the module-name split (paper: 0.9).
	TrainFrac float64
	// RandomRuns bounds the random phase of each formal check.
	RandomRuns int
	// Generate is the number of procedurally generated golden designs
	// added to the fixed catalog (0 = catalog only). Every generated
	// design is verified — it must compile and pass its own assertions
	// non-vacuously — before it enters the corpus.
	Generate int
	// Workers bounds how many designs run Stage 2/3 concurrently
	// (0 = GOMAXPROCS). The output is identical for any worker count.
	Workers int
	// Source overrides where golden designs come from (nil = the fixed
	// catalog plus Generate procedural designs).
	Source corpus.Source
}

// withDefaults fills unset fields with the paper's settings.
func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CoTCorruptRate == 0 {
		c.CoTCorruptRate = 0.25
	}
	if c.TrainFrac == 0 {
		c.TrainFrac = 0.9
	}
	if c.RandomRuns == 0 {
		c.RandomRuns = 24
	}
	if c.BinCaps == [5]int{} {
		c.BinCaps = [5]int{64, 32, 14, 10, 8}
	}
	return c
}

// Defaults returns the config with unset fields filled in — the form Run
// actually executes. Callers that reproduce parts of the pipeline (e.g.
// cmd/augment's streaming split) use it to agree on the effective
// TrainFrac and seeds.
func (c Config) Defaults() Config { return c.withDefaults() }

// source resolves the golden-design source for this config. Generated
// candidates are accepted only when the verification service proves they
// compile and pass their own assertions, with no assertion left vacuous;
// the catalog's content hashes are excluded so the generator only ever
// adds designs.
func (c Config) source(svc *verify.Service) corpus.Source {
	if c.Source != nil {
		return c.Source
	}
	if c.Generate <= 0 {
		return corpus.CatalogSource{}
	}
	var exclude [][32]byte
	for b := range (corpus.CatalogSource{}).Blueprints() {
		exclude = append(exclude, b.ContentHash())
	}
	gen := corpus.NewGenerator(corpus.GenConfig{
		Seed:    c.Seed,
		N:       c.Generate,
		Exclude: exclude,
		Accept: func(b *corpus.Blueprint) bool {
			opts := verify.Options{
				Seed:       designSeed(c.Seed, b.Name()),
				Depth:      b.CheckDepth(16),
				RandomRuns: c.RandomRuns,
			}
			v, err := svc.Run(context.Background(), b.Source(), nil, opts)
			if err != nil || !v.Passed() || len(v.Vacuous()) != 0 {
				return false
			}
			// Generated goldens must be statically clean too: a golden
			// with a latent multi-driver, latch or width hazard would
			// poison every sample derived from it, and the lint-vs-sim
			// differential suite asserts the whole corpus lints clean.
			if !lint.Clean(lint.Analyze(v.Design).Findings) {
				return false
			}
			// Generated goldens must also be clean under four-state
			// checking (every register reset or initialised before any
			// assertion depends on it), so they are valid targets for the
			// reset-removal bug class.
			opts.FourState = true
			v4, err := svc.Run(context.Background(), b.Source(), nil, opts)
			return err == nil && v4.Passed()
		},
	})
	return corpus.Multi(corpus.CatalogSource{}, gen)
}

// Stats counts what happened at each stage.
type Stats struct {
	RawEntries         int
	FilteredIncomplete int
	FilteredTrivial    int
	FilteredDuplicate  int
	CompileFailed      int
	Compiled           int

	MutantsTried      int
	MutantsReset      int // reset-removal mutants among MutantsTried (uncapped, four-state-checked)
	MutantsNoncompile int
	MutantsNoop       int
	MutantsAssertFail int
	MutantsFuncOnly   int
	MutantsSimError   int
	// MutantsLintFlagged counts compiling mutants the static analyzer
	// flags at warning level or above — the statically-detectable share of
	// the injected-bug population (see bugs.SynClass.StaticallyDetectable).
	MutantsLintFlagged int

	CoTGenerated int
	CoTValid     int
}

// add merges another stats delta into s.
func (s *Stats) add(d Stats) {
	s.RawEntries += d.RawEntries
	s.FilteredIncomplete += d.FilteredIncomplete
	s.FilteredTrivial += d.FilteredTrivial
	s.FilteredDuplicate += d.FilteredDuplicate
	s.CompileFailed += d.CompileFailed
	s.Compiled += d.Compiled
	s.MutantsTried += d.MutantsTried
	s.MutantsReset += d.MutantsReset
	s.MutantsNoncompile += d.MutantsNoncompile
	s.MutantsNoop += d.MutantsNoop
	s.MutantsAssertFail += d.MutantsAssertFail
	s.MutantsFuncOnly += d.MutantsFuncOnly
	s.MutantsSimError += d.MutantsSimError
	s.MutantsLintFlagged += d.MutantsLintFlagged
	s.CoTGenerated += d.CoTGenerated
	s.CoTValid += d.CoTValid
}

// CoTValidity returns the fraction of valid CoTs (paper: 0.7455).
func (s Stats) CoTValidity() float64 {
	if s.CoTGenerated == 0 {
		return 0
	}
	return float64(s.CoTValid) / float64(s.CoTGenerated)
}

// Output is the full pipeline product.
type Output struct {
	VerilogPT      []dataset.PTEntry
	VerilogBug     []dataset.BugEntry
	SVABug         []dataset.SVASample // train
	SVAEvalMachine []dataset.SVASample // held-out machine benchmark
	Stats          Stats
}

// Sink receives the pipeline's products as they are finalised. All calls
// come from one goroutine; within each product stream the order is
// deterministic for a fixed Config (independent of Workers and
// GOMAXPROCS), while calls across different streams may interleave. SVA
// samples arrive pre-split — the train/test separation needs the full
// module-name population and is applied afterwards (Run does it in
// memory; cmd/augment re-streams the sample shards).
type Sink interface {
	PT(dataset.PTEntry) error
	Bug(dataset.BugEntry) error
	Sample(dataset.SVASample) error
}

// collector materialises the stream for Run.
type collector struct {
	out     *Output
	samples []dataset.SVASample
	names   dataset.ModuleNames
}

func (c *collector) PT(e dataset.PTEntry) error {
	c.out.VerilogPT = append(c.out.VerilogPT, e)
	return nil
}

func (c *collector) Bug(e dataset.BugEntry) error {
	c.out.VerilogBug = append(c.out.VerilogBug, e)
	return nil
}

func (c *collector) Sample(s dataset.SVASample) error {
	c.names.Add(&s)
	c.samples = append(c.samples, s)
	return nil
}

// Run executes the full pipeline and collects the streamed products into
// an Output, applying the length-binned 90/10 module split at the end.
func Run(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	out := &Output{}
	sink := &collector{out: out}
	st, err := RunStream(cfg, sink)
	if err != nil {
		return nil, err
	}
	out.Stats = st
	side := Split(cfg, &sink.names)
	for _, s := range sink.samples {
		switch side(s.Module, s.TrainOnly()) {
		case dataset.SideTrain:
			out.SVABug = append(out.SVABug, s)
		case dataset.SideTest:
			out.SVAEvalMachine = append(out.SVAEvalMachine, s)
		}
	}
	return out, nil
}

// Split decides the pipeline's train/test split over a sample stream's
// module names — cfg.TrainFrac of each length bin's names train, drawn
// with a seed derived from cfg.Seed — and returns the rule that routes
// each sample by its module: dataset.SideTrain to SVA-Bug,
// dataset.SideTest to SVA-Eval-Machine, dataset.SideDrop nowhere. Run and
// every streaming writer split through it, so they agree sample for
// sample.
func Split(cfg Config, names *dataset.ModuleNames) func(module string, trainOnly bool) dataset.Side {
	cfg = cfg.withDefaults()
	train := dataset.TrainNames(names.ByBin, cfg.TrainFrac, cfg.Seed*17+3)
	return func(module string, trainOnly bool) dataset.Side {
		return dataset.SideOf(train, module, trainOnly)
	}
}

// pipeBuf bounds the result and Verilog-PT channels: at most this many
// finished designs (or dataset entries) wait between stages, however large
// the corpus grows. The job queue is shorter still, one design per worker,
// so the producer holds only the blueprints about to run.
const pipeBuf = 64

// inflightCap bounds how many designs may be past the producer but not
// yet flushed to the sink. It caps the writer's reorder buffer: when one
// slow design stalls the in-order flush, the producer pauses instead of
// letting completed later designs pile up in memory. It is much larger
// than the job queue so a slow design never leaves the other workers idle.
const inflightCap = 2 * pipeBuf

// designJob is one golden design queued for Stage 2/3, tagged with its
// production index so the writer can restore order.
type designJob struct {
	seq int
	bp  *corpus.Blueprint
}

// designResult is the finished Stage-2/3 product of one design.
type designResult struct {
	seq     int
	samples []dataset.SVASample
	bugs    []dataset.BugEntry
	stats   Stats
	err     error
}

// RunStream executes the pipeline as a bounded-channel stream:
//
//	producer (Stage 1 + generation) -> jobs -> Stage-2/3 workers
//	    -> results -> writer (reorders) -> sink
//
// The returned stats aggregate all stages. On the first error the stream
// stops early and the error is returned; the sink never sees products
// past it.
func RunStream(cfg Config, sink Sink) (Stats, error) {
	cfg = cfg.withDefaults()
	svc := verify.Default()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	jobs := make(chan designJob, workers) // one queued design per worker; see pipeBuf
	results := make(chan designResult, pipeBuf)
	ptCh := make(chan dataset.PTEntry, pipeBuf)
	tokens := make(chan struct{}, inflightCap)
	stop := make(chan struct{})
	type prodSummary struct {
		stats Stats
		err   error
	}
	prodC := make(chan prodSummary, 1)

	go func() {
		st, err := produce(cfg, svc, jobs, ptCh, tokens, stop)
		close(jobs)
		close(ptCh)
		prodC <- prodSummary{st, err}
	}()

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				res := processDesign(cfg, job)
				select {
				case results <- res:
				case <-stop:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Writer: the calling goroutine. Results are flushed to the sink in
	// seq order; PT entries already arrive in production order.
	var stats Stats
	var firstErr error
	fail := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
			close(stop)
		}
	}
	pending := map[int]designResult{}
	next := 0
	flush := func() {
		for firstErr == nil {
			r, ok := pending[next]
			if !ok {
				return
			}
			delete(pending, next)
			next++
			<-tokens // this design left the pipeline; unblock the producer
			if r.err != nil {
				fail(r.err)
				return
			}
			stats.add(r.stats)
			for _, s := range r.samples {
				if err := sink.Sample(s); err != nil {
					fail(err)
					return
				}
			}
			for _, e := range r.bugs {
				if err := sink.Bug(e); err != nil {
					fail(err)
					return
				}
			}
		}
	}
	for ptCh != nil || results != nil {
		select {
		case e, ok := <-ptCh:
			if !ok {
				ptCh = nil
				continue
			}
			if firstErr == nil {
				fail(sink.PT(e))
			}
		case r, ok := <-results:
			if !ok {
				results = nil
				continue
			}
			if firstErr == nil {
				pending[r.seq] = r
				flush()
			}
		}
	}
	prod := <-prodC
	stats.add(prod.stats)
	if firstErr == nil {
		firstErr = prod.err
	}
	return stats, firstErr
}

// produce is Stage 1: it streams golden blueprints from the source into
// Stage-2 jobs (each with a Verilog-PT entry), leaving their compilation
// to Stage 2, and filters the defective population into Verilog-PT. Both
// populations are pulled one entry at a time, and duplicates are found by
// the SHA-256 of the source text, so Stage 1 holds neither corpus. Each
// job first claims an in-flight token (returned by the writer once the
// design is flushed), bounding the reorder buffer. Sends abort when stop
// closes.
func produce(cfg Config, svc *verify.Service, jobs chan<- designJob, ptCh chan<- dataset.PTEntry, tokens chan<- struct{}, stop <-chan struct{}) (Stats, error) {
	var st Stats
	seen := map[[sha256.Size]byte]bool{}
	firstSeen := func(src string) bool {
		h := sha256.Sum256([]byte(src))
		if seen[h] {
			return false
		}
		seen[h] = true
		return true
	}
	seq := 0
	sendPT := func(e dataset.PTEntry) bool {
		select {
		case ptCh <- e:
			return true
		case <-stop:
			return false
		}
	}

	src := cfg.source(svc)
	wantGoldens := -1
	if cfg.Source == nil {
		// The built-in source has a known size: the catalog plus exactly
		// Generate procedural designs (the generator excludes catalog
		// hashes, so the union has no duplicates).
		wantGoldens = corpus.CatalogSize() + cfg.Generate
	}
	goldens := 0
	for b := range src.Blueprints() {
		goldens++
		st.RawEntries++
		bSrc := b.Source()
		if !firstSeen(bSrc) {
			st.FilteredDuplicate++
			continue
		}
		// The golden is compiled once, by the Stage-2 worker that injects
		// its bugs (InjectAndValidate fails the run when it does not
		// compile), so no compiled design waits in the job queue.
		st.Compiled++
		if !sendPT(dataset.PTEntry{Name: b.Name(), Code: bSrc, Spec: spec.Generate(b), Compiles: true}) {
			return st, nil
		}
		select {
		case tokens <- struct{}{}:
		case <-stop:
			return st, nil
		}
		select {
		case jobs <- designJob{seq: seq, bp: b}:
			seq++
		case <-stop:
			return st, nil
		}
	}
	if wantGoldens >= 0 && goldens < wantGoldens {
		return st, fmt.Errorf(
			"augment: corpus source yielded %d golden designs, expected %d: the procedural generator exhausted its attempt budget before reaching Generate=%d (lower it or widen the parameter space)",
			goldens, wantGoldens, cfg.Generate)
	}

	for e := range corpus.DefectiveCorpus() {
		st.RawEntries++
		if !hasModuleStructure(e.Source) {
			st.FilteredIncomplete++
			continue
		}
		if !firstSeen(e.Source) {
			st.FilteredDuplicate++
			continue
		}

		m, perr := verilog.Parse(e.Source)
		if perr == nil && isTrivial(m) {
			st.FilteredTrivial++
			continue
		}
		v := verify.Compile(e.Source)
		if !v.Passed() {
			st.CompileFailed++
			specText := "Function: unavailable (code failed to compile).\n"
			if m != nil {
				specText = spec.GenerateBare(m)
			}
			if !sendPT(dataset.PTEntry{
				Name: e.Name, Code: e.Source, Spec: specText,
				Compiles: false, Analysis: v.Log,
			}) {
				return st, nil
			}
			continue
		}
		// Still-compiling defectives are corpus text only: they carry no
		// blueprint metadata, so they feed Verilog-PT but not Stage 2.
		st.Compiled++
		if !sendPT(dataset.PTEntry{Name: e.Name, Code: e.Source, Spec: spec.GenerateBare(m), Compiles: true}) {
			return st, nil
		}
	}
	return st, nil
}

// processDesign runs Stage 2 and 3 for one design with a design-local CoT
// generator, so results do not depend on which worker ran it or in what
// order designs complete.
func processDesign(cfg Config, job designJob) designResult {
	res := designResult{seq: job.seq}
	cotGen := cot.NewGenerator(cfg.CoTCorruptRate, designSeed(cfg.Seed*31+7, job.bp.Name()))
	res.samples, res.bugs, res.err = InjectAndValidate(job.bp, cfg, &res.stats, cotGen)
	if res.err != nil {
		res.err = fmt.Errorf("augment: %s: %w", job.bp.Name(), res.err)
	}
	return res
}

// designSeed derives a deterministic per-design seed from a base seed and
// the design name.
func designSeed(base int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return base ^ int64(h.Sum64()&0x7FFFFFFF)
}

// mutOutcome is what the sequential phase reads of one checked mutant.
// The worker keeps only these fields and drops the verdict (compiled
// design, plans, counterexample trace) as soon as the mutant is done, so
// a design's finished mutants hold no compiled state while its others run.
type mutOutcome struct {
	status verify.Status
	err    error
	log    string
	// direct records whether a mutation-affected signal appears in the
	// failing assertion's property (Table I's Direct/Indirect axis).
	direct bool
	// lintFlagged records whether the static analyzer flags the compiled
	// mutant at warning level or above. Computed in the parallel phase
	// (the verdict already carries the compiled design, so lint costs no
	// extra compile), counted in the sequential phase.
	lintFlagged bool
	// diff, diffLog and diffErr are the behavioural diff against the
	// golden design, run when the mutant passed all assertions.
	diff    bool
	diffLog string
	diffErr error
}

// InjectAndValidate runs Stage 2 and Stage 3 for one golden blueprint,
// returning its assertion-failure samples and functional-only bug entries.
// It compiles the golden once and fails when it does not compile. Mutant
// verification — the hot path — fans out over the shared verification
// service's worker pool but not its cache: every distinct mutant is
// compiled, bounded-model-checked and (when it passes) behaviourally
// diffed in parallel, then stats, CoT generation and sample assembly run
// sequentially in enumeration order so the output is byte-identical to a
// sequential pass.
func InjectAndValidate(b *corpus.Blueprint, cfg Config, stats *Stats, cotGen *cot.Generator) ([]dataset.SVASample, []dataset.BugEntry, error) {
	cfg = cfg.withDefaults()
	svc := verify.Default()
	goldenSrc := b.Source()
	gv := verify.Compile(goldenSrc)
	if !gv.Passed() {
		return nil, nil, fmt.Errorf("golden does not compile: %v %s", gv.CompileErr, compile.FormatDiags(gv.Diags))
	}
	goldenDesign := gv.Design
	specText := spec.Generate(b)
	depth := b.CheckDepth(16)
	seed := designSeed(cfg.Seed, b.Name())
	opts := verify.Options{Seed: seed, Depth: depth, RandomRuns: cfg.RandomRuns}

	limit := cfg.BinCaps[corpus.BinIndex(strings.Count(goldenSrc, "\n"))]
	if cfg.MutationsPerDesign > 0 && (limit == 0 || cfg.MutationsPerDesign < limit) {
		limit = cfg.MutationsPerDesign
	}

	// Mutants arrive one at a time, each printed once and its AST dropped
	// before the next is cloned: later phases need only its text and
	// labels. Mutants that print to the same text in the same value domain
	// share that text and one verdict: only the first of each is checked,
	// and the rest copy its outcome after the parallel phase.
	type mutKey struct {
		src  string
		four bool
	}
	var (
		muts    []bugs.Mutation
		srcs    []string
		firstOf []int
		seen    = map[mutKey]int{}
	)
	add := func(mu bugs.Mutation, src string) {
		mu.Mutant = nil
		k := mutKey{src, mu.Syn == bugs.SynReset}
		j, dup := seen[k]
		if !dup {
			j = len(muts)
			seen[k] = j
		} else {
			src = srcs[j] // a duplicate shares the first text
		}
		muts, srcs, firstOf = append(muts, mu), append(srcs, src), append(firstOf, j)
	}

	// The classic classes print the top module alone, which is the whole
	// blueprint unless it has children.
	for mu, src := range bugs.Stream(b.Module, limit) {
		if len(b.Children) > 0 {
			src = b.SourceWith(mu.Mutant)
		}
		add(mu, src)
	}

	// Reset-removal / initialisation-deletion class: validated under
	// four-state checking (the bug is invisible two-state — registers
	// silently initialise to zero). Only injected when the golden itself is
	// clean four-state, otherwise every reset mutant would "fail" for the
	// golden's own x-propagation rather than the injected bug; the golden
	// is checked when the first reset mutant arrives. The class is
	// appended after the capped classic enumeration so it is never squeezed
	// out by the per-bin caps and classic sample IDs stay stable.
	opts4 := opts
	opts4.FourState = true
	checked := false
	for mu, src := range bugs.StreamResets(b.Module) {
		if !checked {
			checked = true
			if gv4, err := svc.Run(context.Background(), goldenSrc, nil, opts4); err != nil || !gv4.Passed() {
				break
			}
		}
		if len(b.Children) > 0 {
			src = b.SourceWith(mu.Mutant)
		}
		add(mu, src)
	}

	// Hierarchical classes (port miswire, parameter perturbation, CDC
	// re-clocking): only blueprints with children have instances to
	// mutate. Appended after the capped classic classes for the same
	// ID-stability reason as the reset class. Their stream prints the
	// whole set, children first, exactly as SourceWith does.
	if len(b.Children) > 0 {
		for mu, src := range bugs.StreamHier(b.Set(b.Module), limit) {
			add(mu, src)
		}
	}

	// Parallel phase: verify (and diff) every distinct mutant. Each check
	// is one-shot, so it runs outside the verdict cache, and only the
	// fields the sequential phase reads outlive it.
	outcomes := make([]mutOutcome, len(muts))
	workers := min(runtime.GOMAXPROCS(0), len(seen))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				checkOpts := opts
				if muts[i].Syn == bugs.SynReset {
					checkOpts = opts4
				}
				outcomes[i] = checkMutant(svc, srcs[i], &muts[i], goldenDesign, checkOpts)
			}
		}()
	}
	for i, j := range firstOf {
		if i == j {
			idxCh <- i
		}
	}
	close(idxCh)
	wg.Wait()
	for i, j := range firstOf {
		outcomes[i] = outcomes[j]
	}

	// Sequential phase, in enumeration order: classify outcomes, generate
	// and validate CoT (the generator is stateful and deterministic).
	var samples []dataset.SVASample
	var bugEntries []dataset.BugEntry
	for i, mu := range muts {
		o := outcomes[i]
		stats.MutantsTried++
		if mu.Syn == bugs.SynReset {
			stats.MutantsReset++
		}
		if o.status == verify.StatusCompileError {
			stats.MutantsNoncompile++
			continue
		}
		if o.lintFlagged {
			stats.MutantsLintFlagged++
		}
		if o.err != nil {
			stats.MutantsSimError++
			continue
		}
		if o.status == verify.StatusAssertFail {
			stats.MutantsAssertFail++
			s := buildSample(b, mu, i, specText, srcs[i], goldenSrc, o.log, o.direct, depth)
			// Stage 3: CoT generation and validation.
			stats.CoTGenerated++
			cOut := cotGen.Generate(cot.Input{
				Module:    b.Name(),
				LineNo:    s.LineNo,
				BuggyLine: s.BuggyLine,
				FixedLine: s.FixedLine,
				Logs:      s.Logs,
				Syn:       s.Syn,
				IsCond:    s.IsCond,
			})
			if cot.Validate(cOut, s.LineNo, s.FixedLine) {
				stats.CoTValid++
				s.CoT = cOut.Text
				s.CoTValid = true
			}
			samples = append(samples, s)
			continue
		}
		// Passed all assertions: functional-only bug or no-op?
		if o.diffErr != nil {
			stats.MutantsSimError++
			continue
		}
		if !o.diff {
			stats.MutantsNoop++
			continue
		}
		stats.MutantsFuncOnly++
		bugEntries = append(bugEntries, dataset.BugEntry{
			Name:       fmt.Sprintf("%s_fbug%d", b.Name(), i),
			Spec:       specText,
			BuggyCode:  srcs[i],
			BuggyLine:  mu.BuggyLine,
			FixedLine:  mu.GoldenLine,
			LineNo:     mu.LineNo,
			DiffReport: o.diffLog,
		})
	}
	return samples, bugEntries, nil
}

// checkMutant verifies one printed mutant, lints it and, when it passes
// every assertion, diffs it against the golden design (two-state, whatever
// opts says). It returns only what the sequential phase reads.
func checkMutant(svc *verify.Service, src string, mu *bugs.Mutation, golden *compile.Design, opts verify.Options) mutOutcome {
	v, err := svc.Run(context.Background(), src, nil, opts)
	o := mutOutcome{status: v.Status, err: err, log: v.Log}
	if v.Design != nil {
		o.lintFlagged = !lint.Clean(lint.Analyze(v.Design).Findings)
	}
	if v.Formal != nil && v.Formal.Failure != nil {
		o.direct = mu.IsDirect(sva.AssertSignals(v.Formal.Failure.Assert))
	}
	if err == nil && v.Passed() {
		o.diff, o.diffLog, o.diffErr = formal.Differ(context.Background(), golden, v.Design, opts)
	}
	return o
}

func buildSample(b *corpus.Blueprint, mu bugs.Mutation, idx int, specText, mutSrc, goldenSrc, log string, direct bool, depth int) dataset.SVASample {
	return dataset.SVASample{
		ID:         fmt.Sprintf("%s_bug%d", b.Name(), idx),
		Module:     b.Name(),
		Family:     b.Family,
		Spec:       specText,
		BuggyCode:  mutSrc,
		GoldenCode: goldenSrc,
		Logs:       log,
		LineNo:     mu.LineNo,
		BuggyLine:  mu.BuggyLine,
		FixedLine:  mu.GoldenLine,
		Syn:        mu.Syn.String(),
		IsCond:     mu.IsCond,
		IsDirect:   direct,
		Lines:      strings.Count(mutSrc, "\n"),
		CheckDepth: depth,
		Origin:     "machine",
	}
}

// hasModuleStructure implements the Stage-1 completeness filter.
func hasModuleStructure(src string) bool {
	return strings.Contains(src, "module") && strings.Contains(src, "endmodule")
}

// isTrivial implements the Stage-1 "no functional logic" filter: a module
// with no always blocks and no assignment computing anything beyond a
// direct feed-through or constant.
func isTrivial(m *verilog.Module) bool {
	hasLogic := false
	for _, it := range m.Items {
		switch x := it.(type) {
		case *verilog.Always, *verilog.Initial, *verilog.PropertyDecl, *verilog.AssertItem:
			hasLogic = true
		case *verilog.AssignItem:
			switch x.RHS.(type) {
			case *verilog.Ident, *verilog.Number:
				// feed-through or constant: not functional logic
			default:
				hasLogic = true
			}
		}
	}
	return !hasLogic
}
