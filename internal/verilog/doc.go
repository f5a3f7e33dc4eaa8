// Package verilog implements a front end for the subset of Verilog-2001 and
// SystemVerilog Assertions (SVA) used throughout the AssertSolver
// reproduction: a lexer, a recursive-descent parser, an AST, and a
// deterministic printer.
//
// The subset covers module declarations with ANSI and non-ANSI ports,
// wire/reg/parameter declarations, continuous assignments, always blocks
// (sequential and combinational), if/else, case, begin/end blocks, the usual
// expression operators, and SVA property/assert constructs with clocking,
// "disable iff", boolean sequences, cycle delays (##N) and the overlapping
// and non-overlapping implication operators.
//
// The parser pulls tokens from the Lexer as it goes, through a window of
// three tokens (its deepest lookahead), so parsing builds no token slice.
// Errors are reported as if the whole input were lexed first: a lexical
// error anywhere in the input wins over a parse error, and on a parse
// error the parser lexes the rest of the input to find one. The printer
// writes every expression into one builder; only bit- and part-select
// operands go through a scratch builder, to drop their spaces. Printing
// time is therefore linear in nesting depth outside select brackets.
package verilog
