// Package verify is the layered verification service behind every
// insert-fix/recompile/bounded-model-check sequence in the reproduction.
// The paper's whole protocol — Stage-2 bug validation, SVA candidate
// filtering, judging the n=20 evaluation responses, and the iterative
// repair loop — reduces to one expensive primitive: take source text (and
// optionally a candidate assertion set), compile it, and bounded-model-
// check its assertions. This package owns that primitive behind a single
// service API, structured as four layers:
//
//   - Record layer: the outcome of a check splits into a serializable
//     Record (status, logs, diagnostic text, failed/vacuous assertion
//     names, the counterexample stimulus) and the in-memory warm part of
//     a Verdict (the elaborated *compile.Design with its simulator plan,
//     the diagnostics, the *formal.Result). The cached path keeps and
//     returns Records only, plus the design of a CompileOnly check; the
//     uncached Run returns the whole warm verdict.
//   - Store layer: one memory tier and one disk tier. The memory tier is
//     the Service's two-generation verdict cache. The disk tier is an
//     optional DiskStore (SetStore): an append-only log of Records by
//     content hash, built on internal/dataset/binfmt framing. Check reads
//     the cache, then the DiskStore (CompileOnly checks skip it), then
//     computes; a computed record is put to the DiskStore before the
//     check is answered, so an answered check has reached the operating
//     system and survives a process crash. Shards are synced to disk only
//     on rotation and Close. A Service with a store answers repeated
//     checks across process restarts without recomputing.
//   - Execution layer: Check, CheckRecord and Run take a context. The context
//     threads through formal.Check into the simulator run loops, so a
//     disconnected client or an expired deadline stops a 2^16 exhaustive
//     enumeration mid-flight. Concurrent duplicate requests are coalesced
//     into one computation (singleflight) that keeps running while any
//     waiter remains; when the last waiter cancels, the computation is
//     cancelled and the next requester recomputes from scratch. Run is
//     the same pooled computation without the cache, for one-shot checks
//     (a dataset build's mutants) whose verdicts nothing asks for again.
//   - Front end: cmd/serve exposes the Service over HTTP/JSON with
//     admission control, per-client rate limits and lane-batched
//     stimulus checks.
//
// The Service also keeps the two properties the original in-process cache
// had: a content-addressed key (hash of source, candidate assertion set
// and normalised options) and a bounded worker pool, so callers can fan
// out freely without oversubscribing the machine. Cached records and
// compile-only designs are shared between callers and must be treated as
// read-only.
package verify

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/compile"
	"repro/internal/formal"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// Options configures one check. The formal fields mirror formal.Options;
// zero values take the formal checker's defaults, and the cache key is
// computed from the normalised (defaults-applied) form so e.g. Depth 0 and
// Depth 16 address the same entry. cmd/serve's /check decodes into it.
type Options struct {
	// Seed makes the random stimulus phase deterministic.
	Seed int64 `json:"seed,omitempty"`
	// Depth is the bound in clock cycles (default 16).
	Depth int `json:"depth,omitempty"`
	// RandomRuns bounds the random stimulus phase (default 48; negative —
	// formal.NoRandom — disables the phase).
	RandomRuns int `json:"random_runs,omitempty"`
	// MaxExhaustiveBits caps full input-sequence enumeration (default 16).
	MaxExhaustiveBits int `json:"max_exhaustive_bits,omitempty"`
	// MaxConstBits caps constant-input enumeration (default 10).
	MaxConstBits int `json:"max_const_bits,omitempty"`
	// FourState checks in the four-state value domain (formal.Options.
	// FourState): uninitialised/unreset registers read x, and x reaching an
	// assertion fails it. Required to catch the reset-removal and
	// initialisation-deletion bug classes, which are invisible to the
	// two-state default.
	FourState bool `json:"four_state,omitempty"`
	// CompileOnly stops after elaboration: the verdict carries the design
	// but no formal result. Used where a caller needs a compiled design
	// (e.g. as the golden side of a behavioural diff) without checking it.
	CompileOnly bool `json:"compile_only,omitempty"`
}

func (o Options) formal() formal.Options {
	return formal.Options{
		Seed:              o.Seed,
		Depth:             o.Depth,
		RandomRuns:        o.RandomRuns,
		MaxExhaustiveBits: o.MaxExhaustiveBits,
		MaxConstBits:      o.MaxConstBits,
		FourState:         o.FourState,
	}
}

// Status classifies a verdict.
type Status int

// Verdict statuses.
const (
	// StatusPass: the design compiled and every assertion held within the
	// bound (or CompileOnly was set and compilation succeeded).
	StatusPass Status = iota
	// StatusCompileError: parsing or elaboration failed.
	StatusCompileError
	// StatusAssertFail: the design compiled but an assertion failed.
	StatusAssertFail
	// StatusError: the check itself failed (e.g. a combinational loop made
	// the design unsimulatable); the accompanying error is non-nil.
	StatusError
)

var statusNames = [...]string{"pass", "compile-error", "assert-fail", "error"}

// String names the status.
func (s Status) String() string { return statusNames[s] }

// MarshalJSON encodes the status by name, so persisted records and the
// cmd/serve wire format stay readable and stable if the enum is ever
// reordered.
func (s Status) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON decodes a status name.
func (s *Status) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range statusNames {
		if n == name {
			*s = Status(i)
			return nil
		}
	}
	return fmt.Errorf("verify: unknown status %q", name)
}

// StimulusInput names one driven input column of a counterexample.
type StimulusInput struct {
	Name  string `json:"name"`
	Width int    `json:"width"`
}

// Stimulus is a replayable input sequence: row c holds the value driven
// on each input during cycle c, in column order. It is the serializable
// form of the counterexample trace's input columns.
type Stimulus struct {
	Inputs []StimulusInput `json:"inputs"`
	Rows   [][]uint64      `json:"rows"`
}

// Record is the serializable outcome of one check: everything a caller
// that only needs pass/fail (plus logs and counterexample data) can use
// without an elaborated design in memory. Records round-trip through
// JSON and the binfmt codec byte-identically and are what the store
// layer persists.
type Record struct {
	Status Status `json:"status"`
	// Log is the caller-facing record: compiler diagnostics or parse error
	// on compile failure, the verifier log otherwise.
	Log string `json:"log,omitempty"`
	// DiagText is the formatted compiler diagnostics (empty when the
	// compiler emitted none).
	DiagText string `json:"diag_text,omitempty"`
	// Strategy and Runs record how the formal checker explored the state
	// space (empty/zero for compile errors and compile-only checks).
	Strategy string `json:"strategy,omitempty"`
	Runs     int    `json:"runs,omitempty"`
	// FailedAsserts names the assertions that failed (the bounded check
	// stops at the first failure, so at most one today).
	FailedAsserts []string `json:"failed_asserts,omitempty"`
	// VacuousAsserts lists assertions whose antecedent never matched on
	// any explored trace.
	VacuousAsserts []string `json:"vacuous_asserts,omitempty"`
	// Counterexample is the failing input sequence (nil when no assertion
	// failed).
	Counterexample *Stimulus `json:"counterexample,omitempty"`
}

// Passed reports whether the check succeeded end to end.
func (r Record) Passed() bool { return r.Status == StatusPass }

// Vacuous lists assertions whose antecedent never matched (empty when the
// check did not run).
func (r Record) Vacuous() []string { return r.VacuousAsserts }

// Verdict is the outcome of one check: the serializable Record plus the
// warm in-memory parts, which only Run fills. Check fills Record and
// Cached, plus Design for a CompileOnly check; both are shared between
// callers, which must not mutate them.
type Verdict struct {
	Record
	// Design is the elaborated design; nil when compilation failed. It
	// carries internal/sim's compiled execution plan, warmed under the
	// worker slot, so a compile-only design is ready to simulate without
	// re-walking the AST.
	Design *compile.Design
	// CompileErr is the parse error when parsing failed (nil for
	// elaboration failures, which are reported through Diags).
	CompileErr error
	// Diags holds the compiler diagnostics (which include at least one
	// error when Status is StatusCompileError and CompileErr is nil).
	Diags []compile.Diagnostic
	// Formal is the bounded-check result; nil on compile errors, check
	// errors and compile-only verdicts.
	Formal *formal.Result
	// Cached reports whether this verdict was answered from the cache.
	Cached bool
}

// withAssertions substitutes a candidate assertion set into the source:
// the source set is parsed, its top module is stripped of its own
// property/assert items, and the candidates are appended there. Child
// modules keep their items untouched. A parse failure or an ambiguous top
// is a compile-error verdict.
func withAssertions(src string, assertions []verilog.Item) (string, Verdict, bool) {
	set, err := verilog.ParseSet(src)
	if err != nil {
		return "", compileErrVerdict(err), false
	}
	top, err := set.Top()
	if err != nil {
		return "", compileErrVerdict(err), false
	}
	var kept []verilog.Item
	for _, it := range top.Items {
		switch it.(type) {
		case *verilog.PropertyDecl, *verilog.AssertItem:
			continue
		}
		kept = append(kept, it)
	}
	top.Items = kept
	for _, it := range assertions {
		top.Items = append(top.Items, verilog.CloneItem(it))
	}
	return verilog.PrintSet(set), Verdict{}, true
}

func compileErrVerdict(err error) Verdict {
	return Verdict{
		Record:     Record{Status: StatusCompileError, Log: err.Error()},
		CompileErr: err,
	}
}

// extractStimulus lifts the input columns of a counterexample trace into
// the serializable stimulus form, in input declaration order (clock and
// reset columns included, so the sequence is replayable as driven).
func extractStimulus(d *compile.Design, tr *sim.Trace) *Stimulus {
	if tr == nil {
		return nil
	}
	ins := d.Inputs(false)
	if len(ins) == 0 || tr.Len() == 0 {
		return nil
	}
	st := &Stimulus{Inputs: make([]StimulusInput, len(ins)), Rows: make([][]uint64, tr.Len())}
	for i, in := range ins {
		st.Inputs[i] = StimulusInput{Name: in.Name, Width: in.Width}
	}
	for c := 0; c < tr.Len(); c++ {
		row := make([]uint64, len(ins))
		for i, in := range ins {
			row[i], _ = tr.Value(c, in.Name)
		}
		st.Rows[c] = row
	}
	return st
}

// run is the uncached (optional substitution ->) compile -> formal-check
// sequence; it executes inside a worker slot under the compute context.
func run(ctx context.Context, src string, assertions []verilog.Item, opts Options) (Verdict, error) {
	if len(assertions) > 0 {
		var verdict Verdict
		var ok bool
		src, verdict, ok = withAssertions(src, assertions)
		if !ok {
			return verdict, nil
		}
	}
	d, diags, err := compile.Compile(src)
	if err != nil {
		return compileErrVerdict(err), nil
	}
	if compile.HasErrors(diags) || d == nil {
		log := compile.FormatDiags(diags)
		return Verdict{
			Record: Record{Status: StatusCompileError, Log: log, DiagText: log},
			Diags:  diags,
		}, nil
	}
	diagText := ""
	if len(diags) > 0 {
		diagText = compile.FormatDiags(diags)
	}
	// Warm the simulator's compiled execution plan while we hold a worker
	// slot. The plan lives on the design, so a compile-only design (cached
	// for cmd/serve's /stimulus batching, or a golden fed to formal.Differ)
	// is ready to run instead of rebuilding the plan on first simulation.
	sim.PlanOf(d)
	if opts.CompileOnly {
		return Verdict{
			Record: Record{Status: StatusPass, DiagText: diagText},
			Design: d, Diags: diags,
		}, nil
	}
	res, err := formal.Check(ctx, d, opts.formal())
	if err != nil {
		return Verdict{
			Record: Record{Status: StatusError, Log: err.Error(), DiagText: diagText},
			Design: d, Diags: diags,
		}, err
	}
	rec := Record{
		Log:            res.Log,
		DiagText:       diagText,
		Strategy:       res.Strategy,
		Runs:           res.Runs,
		VacuousAsserts: append([]string(nil), res.VacuousAsserts...),
	}
	if res.Pass {
		rec.Status = StatusPass
	} else {
		rec.Status = StatusAssertFail
		if res.Failure != nil {
			rec.FailedAsserts = []string{res.Failure.Assert.Name}
		}
		rec.Counterexample = extractStimulus(d, res.Trace)
	}
	return Verdict{Record: rec, Design: d, Diags: diags, Formal: res}, nil
}

// cacheKey hashes the source, the candidate assertion set and the
// normalised options. The assertion items are hashed through their printed
// form (printing a throwaway module is cheap relative to re-printing and
// re-parsing the full design, which happens only on a miss).
func cacheKey(src string, assertions []verilog.Item, opts Options) Key {
	f := opts.formal().Normalized()
	var meta [8 * 7]byte
	binary.LittleEndian.PutUint64(meta[0:], uint64(f.Seed))
	binary.LittleEndian.PutUint64(meta[8:], uint64(f.Depth))
	binary.LittleEndian.PutUint64(meta[16:], uint64(f.RandomRuns))
	binary.LittleEndian.PutUint64(meta[24:], uint64(f.MaxExhaustiveBits))
	binary.LittleEndian.PutUint64(meta[32:], uint64(f.MaxConstBits))
	if opts.CompileOnly {
		meta[40] = 1
	}
	if f.FourState {
		meta[41] = 1
	}
	// meta[48:56] held the lane count of the retired formal.Options.Lanes.
	// It stays zero, so a key equals the one a lanes-0 request always made.
	h := sha256.New()
	h.Write(meta[:])
	h.Write([]byte(src))
	if len(assertions) > 0 {
		h.Write([]byte{0})
		h.Write([]byte(verilog.Print(&verilog.Module{Name: "__assertions__", Items: assertions})))
	}
	var key Key
	h.Sum(key[:0])
	return key
}
