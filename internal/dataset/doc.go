// Package dataset defines the three training datasets of Fig. 2
// (Verilog-PT, Verilog-Bug, SVA-Bug) and the SVA-Eval benchmark,
// together with the paper's length-binned 90/10 module-name split, the
// Table II distribution statistics, and the on-disk serialisation
// layers cmd/augment writes and cmd/train reads.
//
// # On-disk formats
//
// A dataset <base> exists in exactly one of three formats per
// directory. One Writer (NewWriter) writes all three: it streams every
// format with flat memory, and before creating its files it removes
// every file of <base> in any format, so a directory holds one format per
// base. Load in turn refuses mixed or ambiguous layouts, so a stale build
// in one format can never silently shadow a fresh one in another.
//
//   - Monolithic JSON: one indented <base>.json array (Writer "json" /
//     ReadSamples, Load). The default cmd/augment output: human-readable,
//     streamed on write, but the whole array lives in memory on read.
//
//   - JSONL shards: <base>-00000.jsonl, ... (Writer "jsonl" /
//     ReadShards). One JSON object per line, entries assigned
//     round-robin by index, so shard contents are a pure function of
//     the entry stream and a fixed stream yields byte-identical
//     shards at any worker count. Readers interleave the shards to
//     reassemble production order with O(1) memory.
//
//   - Binary shards: <base>-00000.bin, ... (Writer "bin" / BinReader /
//     ReadShards), the internal/dataset/binfmt container. Same
//     round-robin sharding and determinism contract as JSONL, but
//     records are length-prefixed varint-framed binary with per-shard
//     string interning (repeated module names, specs and golden code
//     are stored once) and simulation logs packed as slot rows of
//     (value, unknown-mask) words instead of text. Each shard ends in
//     a footer index of record offsets, so readers stream
//     allocation-flat or random-access any record in O(1), and
//     disjoint goroutines can scan one shard in parallel.
//
// Every generic reader (ForEachShard, ReadShards, Load) autodetects a
// shard file's format from its leading magic bytes, never from the
// file name, so cmd/train loads whatever format cmd/augment produced.
//
// # Round-trip and determinism guarantees
//
// The binary codec round-trips every entry type byte-identically
// through JSON: for any PTEntry, BugEntry or SVASample, encoding to a
// binary record and decoding it back yields a value whose
// json.Marshal output equals the original's. Log text survives
// exactly — the packed trace encoding verifies its own rendering at
// write time and falls back to raw text when a line cannot be
// reproduced. Writing is deterministic in every format: one entry
// stream, one byte stream, whatever the producing pipeline's worker
// count.
package dataset
