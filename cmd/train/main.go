// Command train runs the paper's training recipe (Fig. 2-II) over datasets
// produced by cmd/augment — either the monolithic *.json files or the
// *-NNNNN.jsonl and *-NNNNN.bin shard streams of its -format jsonl and
// -format bin modes: continual pretraining on Verilog-PT, supervised
// fine-tuning on SVA-Bug + Verilog-Bug, and DPO on challenging cases. It
// saves the resulting models:
//
//	base.model  - untrained baseline
//	sft.model   - after PT + SFT
//	assertsolver.model - after PT + SFT + DPO
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/model"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("train: ")
	var (
		dataDir = flag.String("data", "data", "directory with cmd/augment output")
		outDir  = flag.String("out", "models", "directory for saved models")
		dpoN    = flag.Int("dpo-n", 20, "responses sampled per training case during DPO challenge mining")
		temp    = flag.Float64("temp", 0.2, "sampling temperature")
		beta    = flag.Float64("beta", 0.1, "DPO preference weight (paper: 0.1)")
		seed    = flag.Int64("seed", 77, "DPO sampling seed")
	)
	flag.Parse()

	pt, vbug, svabug, err := loadTrainingData(*dataDir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded: PT=%d Verilog-Bug=%d SVA-Bug=%d\n", len(pt), len(vbug), len(svabug))

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	base := model.New()
	save(base, filepath.Join(*outDir, "base.model"))

	t0 := time.Now()
	sft := model.New()
	sft.Pretrain(pt)
	fmt.Printf("pretraining done (%v)\n", time.Since(t0))
	t0 = time.Now()
	sft.SFT(svabug, vbug)
	fmt.Printf("SFT done: %d whole-line patterns, %d span patterns (%v)\n",
		sft.Patterns.Len(), sft.Patterns.SpanLen(), time.Since(t0))
	save(sft, filepath.Join(*outDir, "sft.model"))

	t0 = time.Now()
	solver := model.New()
	solver.Pretrain(pt)
	solver.SFT(svabug, vbug)
	stats := solver.DPO(svabug, *dpoN, *temp, *beta, *seed)
	fmt.Printf("DPO done: %d/%d challenging cases, %d adjustments, sharpness %.3f (%v)\n",
		stats.Challenging, stats.Samples, stats.Adjusted, solver.Sharpness, time.Since(t0))
	save(solver, filepath.Join(*outDir, "assertsolver.model"))
}

// loadTrainingData reads the three training datasets in whichever
// format cmd/augment produced: <base>.json, <base>-*.jsonl shards or
// <base>-*.bin shards. A missing, mixed-format or corrupt dataset is a
// hard error — training silently proceeding on zero samples would be
// worse than failing.
func loadTrainingData(dir string) (pt []dataset.PTEntry, vbug []dataset.BugEntry, svabug []dataset.SVASample, err error) {
	if pt, err = dataset.Load[dataset.PTEntry](dir, "verilog_pt"); err == nil {
		if vbug, err = dataset.Load[dataset.BugEntry](dir, "verilog_bug"); err == nil {
			svabug, err = dataset.Load[dataset.SVASample](dir, "sva_bug")
		}
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w (run cmd/augment first)", err)
	}
	return pt, vbug, svabug, nil
}

func save(m *model.Model, path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		log.Fatal(err)
	}
	// A model whose close fails may not be on disk: report it as an error.
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved %s (%s)\n", path, m.Name())
}
