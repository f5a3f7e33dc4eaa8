// Package model implements the reproduction's core contribution: a
// trainable statistical repair engine standing in for the fine-tuned
// AssertSolver LLM. The engine mirrors the paper's three training stages
// with measurable behavioural consequences:
//
//   - Pretraining (PT) on Verilog-PT builds a token-level n-gram language
//     model of Verilog, used to flag unusual lines during localisation.
//   - Supervised fine-tuning (SFT) on SVA-Bug and Verilog-Bug learns (a) a
//     naive-Bayes line localiser over structural/log features and (b) a
//     store of abstracted edit patterns (buggy-template -> fix-template)
//     with occurrence counts.
//   - Direct preference optimisation (DPO) replays inference on the
//     training set, finds "challenging cases" (>= 1 wrong answer among 20
//     samples), and shifts pattern log-weights away from the edits behind
//     wrong answers and towards the correct ones. Sharpening the sampling
//     distribution raises pass@1 while slightly reducing sample diversity
//     (pass@5), the paper's RQ1 trade-off, as an emergent consequence.
//
// The edit-pattern store keeps two tables of one type: precise whole-line
// patterns, and span patterns (keys prefixed "span:") that match anywhere
// in a line. One placeholder numbering abstracts training pairs, line
// templates and spans alike.
//
// Inference (Fig. 2-III) consumes Spec + buggy SV + logs and emits n
// JSON-format responses with a candidate buggy line, a fix, and a CoT.
// parseProblem lexes each candidate line once; localisation, suspicion,
// pattern matching and the generic edits all read those tokens, and only
// each proposed fix is lexed again, to score its health. Solve generates
// and reranks the candidates, then samples from them; DPO keys the same
// candidates it samples from instead of generating them a second time.
package model
