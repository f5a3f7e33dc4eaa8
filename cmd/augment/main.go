// Command augment runs the three-stage data-augmentation pipeline
// (Fig. 2-I) over the golden-design corpus — the fixed catalog plus, with
// -n, procedurally generated designs — and writes the resulting datasets:
//
//	verilog_pt.json    - Verilog-PT pretraining entries (dataset (a))
//	verilog_bug.json   - Verilog-Bug auxiliary entries (dataset (b))
//	sva_bug.json       - SVA-Bug training samples (dataset (c))
//	sva_eval_machine.json - held-out machine benchmark
//	sva_eval_human.json   - the 38 hand-crafted human cases
//
// With -format jsonl or -format bin each dataset is written as -shards
// streaming shard files (<name>-00000.jsonl or .bin) instead of one
// monolithic JSON array; the pipeline then streams straight to disk and
// holds no dataset in memory. Mutant checks run outside the verification
// cache, which keeps only each golden design's compile-only verdict (at
// most 8,192), so peak memory grows slowly with -n: on a 2-core Xeon,
// -format bin peaks at about 24 MiB for the catalog alone and 29 MiB at
// -n 200. The bin format is the
// compact binary container of internal/dataset/binfmt (interned strings,
// packed traces, per-shard random-access index). cmd/train autodetects
// whichever format was produced.
//
// It prints pipeline statistics and the Table II distribution.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/augment"
	"repro/internal/dataset"
	"repro/internal/dataset/binfmt"
	"repro/internal/verify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("augment: ")
	var (
		outDir    = flag.String("out", "data", "output directory for dataset files")
		seed      = flag.Int64("seed", 1, "pipeline seed")
		runs      = flag.Int("runs", 16, "random runs per bounded check")
		mutCap    = flag.Int("mutations", 0, "cap mutations per design (0 = per-bin defaults)")
		genN      = flag.Int("n", 0, "procedurally generated designs added to the fixed catalog")
		workers   = flag.Int("workers", 0, "concurrent stage-2/3 designs (0 = GOMAXPROCS; output is identical for any value)")
		format    = flag.String("format", "json", "output format: json (monolithic), jsonl (sharded text), bin (sharded binary)")
		shards    = flag.Int("shards", 4, "shard files per dataset with -format jsonl|bin")
		statsOnly = flag.Bool("stats", false, "print statistics only, write nothing")
	)
	flag.Parse()

	switch *format {
	case "json", "jsonl", "bin":
	default:
		log.Fatalf("unknown -format %q (want json, jsonl or bin)", *format)
	}

	cfg := augment.Config{
		Seed:               *seed,
		RandomRuns:         *runs,
		MutationsPerDesign: *mutCap,
		Generate:           *genN,
		Workers:            *workers,
	}

	if *statsOnly {
		// Stats never need the datasets in memory: stream through a
		// counting sink whatever the requested output format was.
		if err := runStatsOnly(cfg); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *format != "json" {
		if err := runSharded(cfg, *outDir, *shards, *format); err != nil {
			log.Fatal(err)
		}
		return
	}

	out, err := augment.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	human, err := augment.BuildHumanEval(cfg)
	if err != nil {
		log.Fatal(err)
	}

	printStats(out.Stats, len(out.VerilogPT), len(out.VerilogBug), len(out.SVABug), len(out.SVAEvalMachine), len(human))
	fmt.Println("Table II distribution:")
	fmt.Println(dataset.FormatTableII(out.SVABug, append(out.SVAEvalMachine, human...)))

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	write := func(name string, v any) {
		f, err := os.Create(filepath.Join(*outDir, name))
		if err != nil {
			log.Fatal(err)
		}
		if err := dataset.WriteJSON(f, v); err != nil {
			f.Close()
			log.Fatal(err)
		}
		// A failed close loses buffered writes (e.g. on a full disk);
		// it must not be reported as success.
		if err := f.Close(); err != nil {
			log.Fatalf("%s: close: %v", name, err)
		}
	}
	write("verilog_pt.json", out.VerilogPT)
	write("verilog_bug.json", out.VerilogBug)
	write("sva_bug.json", out.SVABug)
	write("sva_eval_machine.json", out.SVAEvalMachine)
	write("sva_eval_human.json", human)
	fmt.Printf("datasets written to %s/\n", *outDir)
}

func printStats(st augment.Stats, pt, vbug, svabug, evalMachine, evalHuman int) {
	fmt.Printf("Stage 1: %d raw entries; filtered %d incomplete, %d trivial, %d duplicate\n",
		st.RawEntries, st.FilteredIncomplete, st.FilteredTrivial, st.FilteredDuplicate)
	fmt.Printf("         %d compiled, %d failed compilation (both -> Verilog-PT: %d entries)\n",
		st.Compiled, st.CompileFailed, pt)
	fmt.Printf("Stage 2: %d mutants tried: %d assertion failures, %d functional-only, %d no-ops, %d non-compiling, %d sim errors\n",
		st.MutantsTried, st.MutantsAssertFail, st.MutantsFuncOnly, st.MutantsNoop, st.MutantsNoncompile, st.MutantsSimError)
	fmt.Printf("         %d compiling mutants flagged by static analysis\n", st.MutantsLintFlagged)
	fmt.Printf("Stage 3: %d CoTs generated, %d valid (%.2f%%; paper reports 74.55%%)\n",
		st.CoTGenerated, st.CoTValid, 100*st.CoTValidity())
	fmt.Printf("Datasets: Verilog-PT=%d Verilog-Bug=%d SVA-Bug=%d SVA-Eval-Machine=%d SVA-Eval-Human=%d\n\n",
		pt, vbug, svabug, evalMachine, evalHuman)
	m := verify.Default().Metrics()
	fmt.Printf("Verify:  %d hits, %d misses, %d coalesced, %d evictions, %d disk hits (%d resident)\n",
		m.Hits, m.Misses, m.Coalesced, m.Evictions, m.DiskHits, m.Entries)
}

// statsSink counts pipeline products and keeps only the lightweight
// per-sample (module, bin, labels) meta needed to reproduce the split and
// Table II — orders of magnitude smaller than the datasets themselves. It
// also serialises every product through both on-disk encodings (JSONL
// lines and the binary container, discarding the bytes) so the report can
// compare their sizes without writing anything.
type statsSink struct {
	ptCount, bugCount int
	namesByBin        map[int][]string
	seenName          map[string]bool
	meta              []sampleMeta

	records   int
	jsonBytes int64
	binCount  countingWriter
	binW      *binfmt.Writer
}

// countingWriter discards its input, keeping only the byte count.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// measure serialises one product through both encodings.
func (s *statsSink) measure(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	s.jsonBytes += int64(len(b)) + 1 // the JSONL newline
	if err := dataset.EncodeRecord(s.binW.Record(), v); err != nil {
		return err
	}
	if err := s.binW.Commit(); err != nil {
		return err
	}
	s.records++
	return nil
}

type sampleMeta struct {
	module    string
	bin       int
	labels    []string
	trainOnly bool
}

func (s *statsSink) PT(e dataset.PTEntry) error { s.ptCount++; return s.measure(&e) }

func (s *statsSink) Bug(e dataset.BugEntry) error { s.bugCount++; return s.measure(&e) }

func (s *statsSink) Sample(sm dataset.SVASample) error {
	bin := sm.BinIndex()
	if !s.seenName[sm.Module] {
		s.seenName[sm.Module] = true
		s.namesByBin[bin] = append(s.namesByBin[bin], sm.Module)
	}
	s.meta = append(s.meta, sampleMeta{module: sm.Module, bin: bin, labels: sm.TypeLabels(), trainOnly: sm.TrainOnly()})
	return s.measure(&sm)
}

// runStatsOnly streams the pipeline through a counting sink and prints the
// same report the writing modes do, plus the JSONL-vs-binary size
// comparison.
func runStatsOnly(cfg augment.Config) error {
	sink := &statsSink{namesByBin: map[int][]string{}, seenName: map[string]bool{}}
	binW, err := binfmt.NewWriter(&sink.binCount)
	if err != nil {
		return err
	}
	sink.binW = binW
	st, err := augment.RunStream(cfg, sink)
	if err != nil {
		return err
	}
	if err := sink.binW.Close(); err != nil {
		return err
	}
	eff := cfg.Defaults()
	trainNames := dataset.TrainNames(sink.namesByBin, eff.TrainFrac, eff.Seed*17+3)
	dt, de := dataset.NewDistribution(), dataset.NewDistribution()
	trainCount, evalCount := 0, 0
	for _, m := range sink.meta {
		switch {
		case trainNames[m.module]:
			dt.Add(m.bin, m.labels)
			trainCount++
		case !m.trainOnly:
			de.Add(m.bin, m.labels)
			evalCount++
		}
	}
	human, err := augment.BuildHumanEval(cfg)
	if err != nil {
		return err
	}
	for i := range human {
		de.Add(human[i].BinIndex(), human[i].TypeLabels())
	}
	printStats(st, sink.ptCount, sink.bugCount, trainCount, evalCount, len(human))
	if sink.records > 0 {
		jsonPer := float64(sink.jsonBytes) / float64(sink.records)
		binPer := float64(int64(sink.binCount)) / float64(sink.records)
		fmt.Printf("Serialisation: jsonl %.0f B/sample, bin %.0f B/sample (%.2fx smaller, %d records)\n\n",
			jsonPer, binPer, jsonPer/binPer, sink.records)
	}
	fmt.Println("Table II distribution:")
	fmt.Println(dataset.FormatTableIIDist(dt, de))
	return nil
}

// shardWriter is the streaming sink surface shared by the JSONL and
// binary sharded writers.
type shardWriter interface {
	Write(v any) error
	Count() int
	Paths() []string
	Close() error
}

// shardSink streams pipeline products straight into shard writers while
// collecting only the per-module name/bin pairs the split needs.
type shardSink struct {
	pt, bug, all shardWriter

	namesByBin map[int][]string
	seenName   map[string]bool
}

func (s *shardSink) PT(e dataset.PTEntry) error { return s.pt.Write(&e) }

func (s *shardSink) Bug(e dataset.BugEntry) error { return s.bug.Write(&e) }

func (s *shardSink) Sample(sm dataset.SVASample) error {
	if !s.seenName[sm.Module] {
		s.seenName[sm.Module] = true
		s.namesByBin[sm.BinIndex()] = append(s.namesByBin[sm.BinIndex()], sm.Module)
	}
	return s.all.Write(&sm)
}

// runSharded is the streaming path: Stage 1-3 products go straight to
// JSONL or binary shards; the train/test split then re-streams the
// combined sample shards into sva_bug and sva_eval_machine, so no
// dataset is ever materialised in memory. On any error every shard
// written so far is removed — a partial shard set is indistinguishable
// from a complete one to dataset.Load, so it must not survive.
func runSharded(cfg augment.Config, outDir string, shards int, format string) (err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var created []string
	defer func() {
		if err == nil {
			return
		}
		for _, path := range created {
			os.Remove(path)
		}
	}()
	newWriter := func(base string) (shardWriter, error) {
		// Remove shards left by a previous run with a different -shards
		// count or format: dataset.Load globs <base>-*.jsonl and
		// <base>-*.bin, so survivors would silently merge a stale build
		// into this one (or trip its mixed-format check).
		stale, gerr := dataset.ShardPaths(outDir, base)
		if gerr != nil {
			return nil, gerr
		}
		for _, path := range stale {
			if rerr := os.Remove(path); rerr != nil {
				return nil, rerr
			}
		}
		var w shardWriter
		var werr error
		if format == "bin" {
			w, werr = dataset.NewBinWriter(outDir, base, shards)
		} else {
			w, werr = dataset.NewShardedWriter(outDir, base, shards)
		}
		if werr != nil {
			return nil, werr
		}
		created = append(created, w.Paths()...)
		return w, nil
	}
	sink := &shardSink{
		namesByBin: map[int][]string{},
		seenName:   map[string]bool{},
	}
	if sink.pt, err = newWriter("verilog_pt"); err != nil {
		return err
	}
	if sink.bug, err = newWriter("verilog_bug"); err != nil {
		return err
	}
	if sink.all, err = newWriter("sva_samples"); err != nil {
		return err
	}
	st, err := augment.RunStream(cfg, sink)
	if err != nil {
		return err
	}
	ptCount, bugCount := sink.pt.Count(), sink.bug.Count()
	for _, w := range []shardWriter{sink.pt, sink.bug, sink.all} {
		if cerr := w.Close(); cerr != nil {
			return cerr
		}
	}

	// Split pass: route the combined sample stream by module name.
	eff := cfg.Defaults()
	trainNames := dataset.TrainNames(sink.namesByBin, eff.TrainFrac, eff.Seed*17+3)
	samplePaths := sink.all.Paths()
	trainW, err := newWriter("sva_bug")
	if err != nil {
		return err
	}
	evalW, err := newWriter("sva_eval_machine")
	if err != nil {
		return err
	}
	dt, de := dataset.NewDistribution(), dataset.NewDistribution()
	// The sample shards are re-streamed interleaved, restoring production
	// order: for a fixed seed the routed datasets come out identical to
	// the monolithic JSON mode's, entry for entry, at any -shards count.
	route := func(s dataset.SVASample) error {
		if trainNames[s.Module] {
			dt.Add(s.BinIndex(), s.TypeLabels())
			return trainW.Write(&s)
		}
		if s.TrainOnly() {
			return nil // train-only class on a test module: dropped, not moved
		}
		de.Add(s.BinIndex(), s.TypeLabels())
		return evalW.Write(&s)
	}
	if err := dataset.ForEachShard(samplePaths, route); err != nil {
		return err
	}

	human, err := augment.BuildHumanEval(cfg)
	if err != nil {
		return err
	}
	humanW, err := newWriter("sva_eval_human")
	if err != nil {
		return err
	}
	for i := range human {
		de.Add(human[i].BinIndex(), human[i].TypeLabels())
		if werr := humanW.Write(&human[i]); werr != nil {
			return werr
		}
	}
	trainCount, evalCount := trainW.Count(), evalW.Count()
	for _, w := range []shardWriter{trainW, evalW, humanW} {
		if cerr := w.Close(); cerr != nil {
			return cerr
		}
	}
	for _, path := range samplePaths {
		if rerr := os.Remove(path); rerr != nil {
			return rerr
		}
	}

	printStats(st, ptCount, bugCount, trainCount, evalCount, len(human))
	fmt.Println("Table II distribution:")
	fmt.Println(dataset.FormatTableIIDist(dt, de))
	fmt.Printf("%s datasets written to %s/ (%d shards each)\n", format, outDir, shards)
	return nil
}
