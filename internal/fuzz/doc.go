// Package fuzz is the cross-engine differential fuzzing subsystem: a
// seeded random-Verilog program generator driven through four oracles
// that hold the whole verification stack — parser, printer, compiled
// simulation plan, reference interpreter, SVA checker and bounded model
// checker — to account for every program it can express, not just the
// corpus families. Every sample, injected bug and repair verdict in the
// reproduction flows through that stack, so a silent semantics divergence
// poisons training data and evaluation numbers alike; the fuzzer exists
// to find such divergences continuously instead of one hand-debugged bug
// at a time.
//
// # The generator
//
// GenerateModule synthesises whole modules from the grammar: random
// declaration mixes (wires, regs, localparams, constant initialisers),
// random always/assign nests with if/case control flow, blocking and
// nonblocking assignments to whole signals, bit selects (constant and
// dynamic), part selects and concatenations, random expression trees over
// every operator the front end accepts (including ===, >>>, %, and the
// reduction and sampled-value operators), and random SVA properties —
// inline and named, with ##N delays including ##0, both implication
// kinds, and disable iff. Programs are levelised by construction, so
// combinational loops cannot occur, and all literals are masked to their
// widths. The same seed always produces the same module.
//
// # The oracles
//
// Round-trip (RoundTrip): printing a module, parsing the text and deep-
// comparing the ASTs (ignoring positions) must succeed, and the print
// must be a parser fixpoint. This pins the printer/parser pair that every
// dataset sample, line-number label and content-addressed cache key
// depends on.
//
// Engine equivalence (EngineEquivalence): a program internal/compile
// accepts must have a plan in both value domains (an "unplanned"
// violation otherwise: compile and the planner disagree about the
// language), and the compiled slot-indexed plan (sim.RunVecCtx) and the
// reference interpreter (sim.RunReferenceCtx) must produce the same run
// error text, byte-identical traces, identical SVA verdicts and identical
// failure logs under the same random vector stimulus, in the two-state
// and then the four-state domain — the corpus-wide differential test,
// extended to arbitrary generated programs.
// The lane-parallel engine (sim.RunLanesCtx) rides along as a third leg in
// both value domains: the same stimulus is packed into a ragged batch
// with random siblings, every demuxed lane is held to its own scalar plan
// run, and the batched SVA checker's per-lane verdict masks must match
// the per-lane scalar checker. A lane-engine error passes vacuously (the
// documented scalar-fallback contract), but a lane success over a
// stimulus the scalar engine rejects is itself a violation.
//
// Formal consistency (FormalConsistency): a counterexample reported by
// the bounded model checker must replay as a failure of the named
// assertion at the reported cycle on the reference interpreter, and a
// Pass from the complete exhaustive-sequences strategy must not be
// contradicted by any other strategy at the same bound.
//
// Lint consistency (LintConsistency): the static analyzer's claims about
// a compiling program must agree with its simulated behaviour — a
// lint-proved constant signal holds exactly its proved value on every
// reference-trace row in both value domains, a proved-dead branch
// polarity never appears in the recorded branch coverage, a never-reset
// register starts fully x in four-state runs, and the canonical lint
// verdict survives a print→parse round trip byte-identically. The
// analyzer panicking on a valid program is itself a violation.
//
// # The minimizer
//
// Minimize greedily shrinks a failing program while its oracle keeps
// failing: module items, ports, statements and sequence terms are
// removed, subexpressions hoisted over their parents, and leaves
// collapsed to literals. Each reduction strictly simplifies the tree, so
// minimisation terminates; candidates that stop compiling make the
// engine oracles pass vacuously and are rejected by the predicate
// without special casing.
//
// # Regression corpus
//
// Every bug the fuzzer has found lands in testdata/regressions as the
// minimized program that exposed it, named after the bug cluster. The
// corpus runs under plain `go test` (TestRegressionCorpus) on every CI
// run, so a fixed cluster can never silently regress, and the same files
// seed the native fuzz targets (FuzzRoundTrip, FuzzEngineEquivalence,
// FuzzFormalConsistency) via f.Add.
package fuzz
