// Package corpus generates the synthetic Verilog population that replaces
// the paper's 108,971-sample Hugging Face corpus. It provides:
//
//   - parametric golden-design generators ("families") covering the RTL
//     idioms the paper's evaluation spans: counters, accumulators, shift
//     registers, FSMs, FIFOs, ALUs, encoders, handshakes and multi-stage
//     pipelines, spread across the five code-length bins of Table II;
//   - candidate SystemVerilog assertions per family, later validated by the
//     formal substitute (internal/svagen);
//   - deliberately defective sources (syntax errors, semantic errors,
//     trivial modules, duplicates) exercising the Stage-1 filter and
//     populating the Verilog-PT dataset, streamed by DefectiveCorpus;
//   - the 38 hand-crafted SVA-Eval-Human cases.
//
// # Sources
//
// Golden designs flow through the Source abstraction: a deterministic,
// restartable stream of fresh Blueprint ASTs. CatalogSource serves the
// fixed hand-written catalog, an ordered list of constructors, building
// each blueprint only when the stream reaches it (Catalog collects the
// stream for callers that want a list); Generator samples designs
// procedurally; Multi concatenates sources and FuncSource adapts ad-hoc
// blueprint lists (tests, experiments). Consumers like internal/augment
// take any Source, so corpus composition is a configuration choice, not a
// code change.
//
// # Procedural generation
//
// Where the catalog hard-codes a few dozen parameter choices, Generator
// (generator.go) expands every family archetype over its sampled
// parameter space — widths, depths, state counts, FIFO geometries,
// pipeline stages, arbiter fan-ins — and over a reset polarity/encoding
// axis (variants.go) that rewrites the canonical active-low asynchronous
// rst_n idiom into active-high and/or synchronous forms, updating ports,
// sensitivity lists, disable-iff guards, port docs and descriptions
// consistently. Each candidate is built from an RNG derived from the
// generator seed and the attempt index, deduplicated by content hash
// (optionally against an exclusion set such as the catalog), and passed
// through an Accept hook before emission — the augmentation pipeline uses
// that hook to require that every generated design compiles and passes
// its own assertions non-vacuously. The emitted stream is a pure function
// of GenConfig, so dataset builds stay reproducible at any scale.
package corpus
