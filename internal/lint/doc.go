// Package lint statically analyzes elaborated Verilog designs and reports
// structural hazards the simulators would otherwise only surface
// dynamically: multiply-driven signals, combinational loops, inferred
// latches, never-reset registers, width mismatches, constant signals and
// dead branches.
//
// The package exists in a repository whose whole premise is differential
// checking, and it plays by the same rules: every rule that makes a claim
// about runtime behaviour is stated as a machine-checkable contract in
// Result, and the test suite (plus the fuzzer's lint oracle) holds the
// static claims against real reference-interpreter traces in both value
// domains:
//
//   - Result.Consts: a proved-constant signal must hold exactly its proved
//     value, fully known, on every trace row.
//   - Result.Dead: a proved-dead branch polarity must never appear in the
//     branch coverage sim.RunReferenceBranches records over the same
//     vector stimulus the other engines run.
//   - Result.NeverReset: a flagged register must start fully x at cycle 0
//     of every four-state trace.
//   - The Verdict over a design must be byte-identical after a
//     print→parse round trip of its source.
//
// The constant-signal and dead-branch proofs fold with compile.FoldKnown,
// the repository's one constant folder, over the parameters and the
// signals already proved constant: a fold that divides by zero or reads an
// x/z digit is declined, so every proved value is one fully known value in
// both value domains. The package imports no simulator; the reference
// interpreter appears only in its tests, as the oracle above.
//
// Findings carry a Severity; Clean reports whether a design has nothing at
// Warning or above, which is the bar the corpus quality gate and the
// cmd/lint exit status use. All analyses are deterministic: rules run in a
// fixed order and iterate signals in Design.Order, so two runs over the
// same design produce identical output.
package lint
