// Command svaeval emits the SVA-Eval benchmark (machine-generated plus the
// 38 hand-crafted human cases) as a single JSON file, the open-source
// artefact the paper releases for the community. -out must name a .json
// file; it is written through dataset.Writer, which first removes any
// other format's files of the same base (<base>-*.jsonl, <base>-*.bin).
package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"strings"

	"repro/internal/augment"
	"repro/internal/dataset"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("svaeval: ")
	var (
		out  = flag.String("out", "sva_eval.json", "output benchmark file")
		seed = flag.Int64("seed", 1, "pipeline seed")
		runs = flag.Int("runs", 16, "random runs per bounded check")
	)
	flag.Parse()
	dir, name := filepath.Split(*out)
	base, ok := strings.CutSuffix(name, ".json")
	if !ok {
		log.Fatalf("-out %q does not name a .json file", *out)
	}

	cfg := augment.Config{Seed: *seed, RandomRuns: *runs}
	res, err := augment.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	human, err := augment.BuildHumanEval(cfg)
	if err != nil {
		log.Fatal(err)
	}
	bench := append(res.SVAEvalMachine, human...)
	if err := write(dir, base, bench); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SVA-Eval written to %s: %d machine + %d human = %d cases\n",
		*out, len(res.SVAEvalMachine), len(human), len(bench))
	fmt.Println(dataset.FormatTableII(nil, bench))
}

// write writes the benchmark to <dir>/<base>.json as one indented JSON
// array. A failed close loses buffered writes (e.g. on a full disk), so
// it is reported, not dropped.
func write(dir, base string, bench []dataset.SVASample) error {
	w, err := dataset.NewWriter(dir, base, "json", 1)
	if err != nil {
		return err
	}
	for i := range bench {
		if err := w.Write(&bench[i]); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}
