// Command solve is the inference CLI (Fig. 2-III): given a trained model,
// a buggy SystemVerilog file, its specification and the verifier logs, it
// prints n candidate solutions in the JSON response format (bug line, fix,
// CoT). When -logs is omitted the tool runs the bounded model checker
// itself to obtain the failure log, covering the common "I just have a
// failing design" workflow.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/internal/compile"
	"repro/internal/formal"
	"repro/internal/model"
	"repro/internal/vcd"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("solve: ")
	var (
		modelPath = flag.String("model", "models/assertsolver.model", "trained model file")
		svPath    = flag.String("sv", "", "buggy SystemVerilog file (required)")
		specPath  = flag.String("spec", "", "specification text file (optional)")
		logsPath  = flag.String("logs", "", "verifier log file (optional: generated if omitted)")
		vcdPath   = flag.String("vcd", "", "write the counterexample waveform to this VCD file")
		n         = flag.Int("n", 5, "number of responses to sample")
		temp      = flag.Float64("temp", 0.2, "sampling temperature")
		depth     = flag.Int("depth", 24, "bounded-check depth when generating logs")
		seed      = flag.Int64("seed", 1, "sampling seed")
	)
	flag.Parse()
	if *svPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	code := mustReadFile(*svPath)
	spec := ""
	if *specPath != "" {
		spec = mustReadFile(*specPath)
	}
	logs := ""
	if *logsPath != "" {
		logs = mustReadFile(*logsPath)
	} else {
		d, diags, err := compile.Compile(code)
		if err != nil {
			log.Fatalf("the design does not compile: %v", err)
		}
		if compile.HasErrors(diags) {
			log.Fatalf("the design does not elaborate:\n%s", compile.FormatDiags(diags))
		}
		res, err := formal.Check(context.Background(), d, formal.Options{Seed: 7, Depth: *depth})
		if err != nil {
			log.Fatal(err)
		}
		if res.Pass {
			fmt.Println("all assertions pass within the bound; nothing to solve")
			return
		}
		logs = res.Log
		fmt.Printf("generated verifier log:\n%s\n", logs)
		if *vcdPath != "" && res.Trace != nil {
			vf, err := os.Create(*vcdPath)
			if err != nil {
				log.Fatal(err)
			}
			if err := vcd.Write(vf, res.Trace, vcd.Options{}); err != nil {
				log.Fatal(err)
			}
			if err := vf.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("counterexample waveform written to %s\n", *vcdPath)
		}
	}

	f, err := os.Open(*modelPath)
	if err != nil {
		log.Fatalf("%v (run cmd/train first)", err)
	}
	m, err := model.Load(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: %s\n\n", m.Name())

	p := model.Problem{Spec: spec, BuggyCode: code, Logs: logs, CheckDepth: *depth}
	rng := rand.New(rand.NewSource(*seed))
	for i, r := range m.Solve(p, *n, *temp, rng) {
		fmt.Printf("response %d: %s\n", i+1, r.JSON())
	}
}

func mustReadFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	return string(b)
}
