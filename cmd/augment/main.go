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
// shard files (<name>-00000.jsonl or .bin) instead of one JSON array.
// Every format goes through one dataset.Writer and streams straight to
// disk: the pipeline holds no dataset in memory, and each writer first
// removes its dataset's files in any other format. No check enters the
// verification cache, and the pipeline holds only the designs and mutants
// in flight, taking its inputs one at a time, so peak memory barely grows
// with -n: on a 2-core Xeon, the catalog alone peaks at 10.5-11.6 MiB in
// every format, and -format bin at 13.7 MiB at -n 200. The bin format
// is the compact binary container of internal/dataset/binfmt (interned strings,
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

	var err error
	switch {
	case *statsOnly:
		// Stats never need the datasets in memory: stream through a
		// counting sink whatever the requested output format was.
		err = runStatsOnly(cfg)
	default:
		err = runSharded(cfg, *outDir, *shards, *format)
	}
	if err != nil {
		log.Fatal(err)
	}
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
	names             dataset.ModuleNames
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
	s.names.Add(&sm)
	s.meta = append(s.meta, sampleMeta{module: sm.Module, bin: sm.BinIndex(), labels: sm.TypeLabels(), trainOnly: sm.TrainOnly()})
	return s.measure(&sm)
}

// runStatsOnly streams the pipeline through a counting sink and prints the
// same report the writing modes do, plus the JSONL-vs-binary size
// comparison.
func runStatsOnly(cfg augment.Config) error {
	sink := &statsSink{}
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
	side := augment.Split(cfg, &sink.names)
	dt, de := dataset.NewDistribution(), dataset.NewDistribution()
	trainCount, evalCount := 0, 0
	for _, m := range sink.meta {
		switch side(m.module, m.trainOnly) {
		case dataset.SideTrain:
			dt.Add(m.bin, m.labels)
			trainCount++
		case dataset.SideTest:
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

// shardSink streams pipeline products straight into dataset writers while
// collecting only the per-module name/bin pairs the split needs.
type shardSink struct {
	pt, bug, all *dataset.Writer
	names        dataset.ModuleNames
}

func (s *shardSink) PT(e dataset.PTEntry) error { return s.pt.Write(&e) }

func (s *shardSink) Bug(e dataset.BugEntry) error { return s.bug.Write(&e) }

func (s *shardSink) Sample(sm dataset.SVASample) error {
	s.names.Add(&sm)
	return s.all.Write(&sm)
}

// runSharded is the one write path: Stage 1-3 products go straight to
// dataset writers in the requested format; the train/test split then
// re-streams the combined sample shards into sva_bug and
// sva_eval_machine, so no dataset is ever materialised in memory. The
// combined samples are a temporary jsonl or bin shard set (jsonl for
// -format json), removed once routed. On any error every file written so
// far is removed: a partial dataset is indistinguishable from a complete
// one to dataset.Load, so it must not survive. A shard count below 1
// writes, and reports, one shard per dataset; json writes one file.
func runSharded(cfg augment.Config, outDir string, shards int, format string) (err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var writers []*dataset.Writer
	defer func() {
		if err == nil {
			return
		}
		for _, w := range writers {
			w.Close()
			for _, path := range w.Paths() {
				os.Remove(path)
			}
		}
	}()
	// Each writer first removes its base's files in every format, left by
	// a previous run with another -format or -shards.
	newWriter := func(base, format string) (*dataset.Writer, error) {
		w, err := dataset.NewWriter(outDir, base, format, shards)
		if err != nil {
			return nil, err
		}
		writers = append(writers, w)
		return w, nil
	}
	sampleFormat := format
	if format == "json" {
		sampleFormat = "jsonl"
	}
	sink := &shardSink{}
	if sink.pt, err = newWriter("verilog_pt", format); err != nil {
		return err
	}
	if sink.bug, err = newWriter("verilog_bug", format); err != nil {
		return err
	}
	if sink.all, err = newWriter("sva_samples", sampleFormat); err != nil {
		return err
	}
	st, err := augment.RunStream(cfg, sink)
	if err != nil {
		return err
	}
	ptCount, bugCount := sink.pt.Count(), sink.bug.Count()
	for _, w := range []*dataset.Writer{sink.pt, sink.bug, sink.all} {
		if cerr := w.Close(); cerr != nil {
			return cerr
		}
	}

	// Split pass: route the combined sample stream by module name.
	side := augment.Split(cfg, &sink.names)
	samplePaths := sink.all.Paths()
	trainW, err := newWriter("sva_bug", format)
	if err != nil {
		return err
	}
	evalW, err := newWriter("sva_eval_machine", format)
	if err != nil {
		return err
	}
	dt, de := dataset.NewDistribution(), dataset.NewDistribution()
	// The sample shards are re-streamed interleaved, restoring production
	// order: for a fixed seed the routed datasets hold the entries
	// augment.Run collects, in its order, at any -shards count.
	route := func(s dataset.SVASample) error {
		switch side(s.Module, s.TrainOnly()) {
		case dataset.SideTrain:
			dt.Add(s.BinIndex(), s.TypeLabels())
			return trainW.Write(&s)
		case dataset.SideTest:
			de.Add(s.BinIndex(), s.TypeLabels())
			return evalW.Write(&s)
		}
		return nil
	}
	if err := dataset.ForEachShard(samplePaths, route); err != nil {
		return err
	}

	human, err := augment.BuildHumanEval(cfg)
	if err != nil {
		return err
	}
	humanW, err := newWriter("sva_eval_human", format)
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
	for _, w := range []*dataset.Writer{trainW, evalW, humanW} {
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
	fmt.Printf("%s datasets written to %s/ (%d shards each)\n", format, outDir, len(trainW.Paths()))
	return nil
}
