// Hierarchy walks a multi-module design through elaboration end to end:
// module instantiation, parameter overrides, and two clock domains. The
// front end parses a source set and auto-detects the top module,
// flattening resolves every instance into one flat module with dotted
// hierarchical names ("u_sync.meta"), and the flat slot-indexed design
// simulates and verifies exactly like hand-written flat source — each
// clock domain advancing only on its own edges.
//
//	go run ./examples/hierarchy
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"

	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/formal"
	"repro/internal/sim"
	"repro/internal/sva"
	"repro/internal/verilog"
)

func main() {
	log.SetFlags(0)

	// A two-clock crossing built from an instantiated synchronizer: a
	// clk_a-domain source register feeds a sync2 instance clocked on clk_b.
	bp := corpus.CDCCross()
	src := bp.Source()
	set, err := verilog.ParseSet(src)
	must(err)
	top, err := set.Top()
	must(err)
	fmt.Printf("=== source set: %d modules, top %q auto-detected ===\n", len(set.Modules), top.Name)
	printExcerpt(src, "u_sync")

	d, diags, err := compile.Compile(src)
	must(err)
	if compile.HasErrors(diags) {
		log.Fatalf("golden design broken:\n%s", compile.FormatDiags(diags))
	}

	// Flattening uniquified the child's declarations with the instance
	// prefix; after elaboration, hierarchy exists only in the names.
	fmt.Println("flattened hierarchical signals:")
	for _, name := range d.Order {
		if strings.Contains(name, ".") {
			fmt.Printf("  %s (%d bit)\n", name, d.Signals[name].Width)
		}
	}
	fmt.Println("clock domains:")
	for k, dom := range d.Domains {
		fmt.Printf("  domain %d: %s\n", k, dom)
	}
	fmt.Println()

	// Clocks are ordinary stimulus-driven inputs. clk_a toggles every row
	// and clk_b at half that rate, so the two domains tick on different
	// rows and the synchronizer visibly lags the source register.
	const depth = 16
	stim := sim.VecStimulus{Rows: make([][]uint64, depth)}
	for _, name := range []string{"clk_a", "clk_b", "rst_n", "d"} {
		stim.Inputs = append(stim.Inputs, d.Signals[name])
	}
	for c := range stim.Rows {
		stim.Rows[c] = []uint64{uint64(c % 2), uint64(c / 2 % 2), boolBit(c >= 2), uint64(c / 3 % 2)}
	}
	tr, err := sim.RunVecCtx(context.Background(), d, stim, sim.TwoState)
	must(err)

	bIdx := domainIndex(d, "clk_b")
	ticks := tr.DomainCycles(bIdx)
	fmt.Printf("=== simulation: %d rows, clk_b ticks on rows %v ===\n", tr.Len(), ticks)
	fmt.Println("destination-domain view (sampled at clk_b ticks only):")
	fmt.Println("  row  src  u_sync.meta  q")
	for _, c := range ticks {
		s, _ := tr.Value(c, "src")
		meta, _ := tr.Value(c, "u_sync.meta")
		q, _ := tr.Value(c, "q")
		fmt.Printf("  %3d  %3d  %11d  %d\n", c, s, meta, q)
	}

	// The embedded properties are clocked @(posedge clk_b): the checker
	// advances them over exactly those ticks, not over stimulus rows.
	res, err := sva.Check(tr)
	must(err)
	fmt.Printf("assertion attempts over %d clk_b ticks: %v, failures: %d\n\n",
		len(ticks), res.Attempts, len(res.Failures))

	// Parameter overrides: the FIFO instantiates one hier_cnt child twice,
	// overriding its WIDTH parameter per instance. The overrides surface as
	// dotted localparams in the elaborated design.
	fifo := corpus.HierFIFO(3)
	fd, diags, err := compile.Compile(fifo.Source())
	must(err)
	if compile.HasErrors(diags) {
		log.Fatalf("fifo broken:\n%s", compile.FormatDiags(diags))
	}
	fmt.Printf("=== %s: two hier_cnt instances, WIDTH overridden per instance ===\n", fifo.Name())
	var params []string
	for name := range fd.Params {
		if strings.Contains(name, ".") {
			params = append(params, name)
		}
	}
	sort.Strings(params)
	for _, name := range params {
		fmt.Printf("  localparam %s = %d\n", name, fd.Params[name])
	}
	fres, err := formal.Check(context.Background(), fd, formal.Options{Seed: 1, Depth: fifo.CheckDepth(24)})
	must(err)
	fmt.Printf("bounded check across the instance boundary: pass=%v (%d runs, %s)\n",
		fres.Pass, fres.Runs, fres.Strategy)
}

func domainIndex(d *compile.Design, clock string) int {
	for k, dom := range d.Domains {
		if dom.Signal == clock {
			return k
		}
	}
	log.Fatalf("no clock domain for %s", clock)
	return -1
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func printExcerpt(src, needle string) {
	for _, line := range strings.Split(src, "\n") {
		if strings.Contains(line, needle) {
			fmt.Println(strings.TrimRight(line, " "))
		}
	}
	fmt.Println()
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
