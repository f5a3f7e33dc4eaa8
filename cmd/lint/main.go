// Command lint runs the static analyzer over Verilog source files (or,
// with -corpus, over every golden design in the built-in catalog) and
// prints the findings. Exit status: 0 when every analyzed design is
// lint-clean (no finding at warning or above), 1 when any design has a
// warning-level finding, 2 on usage, read or compile errors. -json emits
// one JSON object per design instead of compiler-style diagnostics; -info
// includes info-level findings in the text output (they never affect the
// exit status).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/corpus"
	"repro/internal/lint"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lint: ")
	var (
		jsonOut   = flag.Bool("json", false, "emit findings as JSON, one object per design")
		useCorpus = flag.Bool("corpus", false, "lint every golden design in the built-in catalog")
		showInfo  = flag.Bool("info", false, "print info-level findings too")
	)
	flag.Parse()

	if *useCorpus == (flag.NArg() > 0) {
		fmt.Fprintln(os.Stderr, "usage: lint [-json] [-info] file.v... | lint [-json] [-info] -corpus")
		os.Exit(2)
	}

	exit := 0
	check := func(name, src string) {
		res, err := lint.AnalyzeSource(src)
		if err != nil {
			log.Printf("%s: %v", name, err)
			exit = 2
			return
		}
		if !lint.Clean(res.Findings) && exit == 0 {
			exit = 1
		}
		if *jsonOut {
			out := struct {
				Name     string         `json:"name"`
				Clean    bool           `json:"clean"`
				Findings []lint.Finding `json:"findings"`
			}{name, lint.Clean(res.Findings), res.Findings}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(out); err != nil {
				log.Print(err)
				os.Exit(2)
			}
			return
		}
		for _, f := range res.Findings {
			if f.Severity < lint.Warning && !*showInfo {
				continue
			}
			fmt.Printf("%s: %s\n", name, f)
		}
	}

	if *useCorpus {
		// One blueprint is built, printed and linted at a time.
		for b := range (corpus.CatalogSource{}).Blueprints() {
			check(b.Name(), b.Source())
		}
		os.Exit(exit)
	}
	// Every file is read before any is linted, so a read error exits
	// before any finding is printed.
	srcs := make([]string, flag.NArg())
	for i, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		srcs[i] = string(data)
	}
	for i, path := range flag.Args() {
		check(path, srcs[i])
	}
	os.Exit(exit)
}
