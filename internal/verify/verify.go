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
//     the diagnostics, the *formal.Result). The cached Check keeps and
//     returns Records only, and Service.Compile a Record and its shared
//     design; the uncached Run and Compile return the whole warm verdict.
//   - Store layer: one memory tier and one disk tier. The memory tier is
//     the Service's two-generation verdict cache. The disk tier is an
//     optional DiskStore (SetStore): an append-only log of Records by
//     content hash, built on internal/dataset/binfmt framing. Check reads
//     the cache, then the DiskStore (Service.Compile never touches it), then
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
//     (a dataset build's mutants) whose verdicts nothing asks for again,
//     and the package-level Compile is the compile half alone.
//   - Front end: cmd/serve exposes the Service over HTTP/JSON with
//     admission control, per-client rate limits and stimulus checks, each
//     run on its own scalar checker.
//
// The Service also keeps the two properties the original in-process cache
// had: a content-addressed key (hash of source, candidate assertion set
// and normalised options) and a bounded worker pool, so callers can fan
// out freely without oversubscribing the machine. Cached records and
// Service.Compile's designs are shared between callers and must be treated
// as read-only.
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

// Options configures one check. It is formal.Options itself: zero values
// take the formal checker's defaults, the cache key is computed from the
// Normalized form (so Depth 0 and Depth 16 address the same entry), and
// cmd/serve's /check decodes into it.
type Options = formal.Options

// Status classifies a verdict.
type Status int

// Verdict statuses.
const (
	// StatusPass: the design compiled and every assertion held within the
	// bound (or, for Compile, compilation succeeded).
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
	// space (empty/zero for compile errors and Compile verdicts).
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

// Verdict is the outcome of one check or compile: the serializable Record
// plus the warm in-memory parts, which Run and Compile fill. Check fills
// Record and Cached only; Service.Compile fills Record, Cached and Design.
// Both share what they return between callers, which must not mutate it.
type Verdict struct {
	Record
	// Design is the elaborated design; nil when compilation failed. The
	// design Service.Compile returns carries internal/sim's compiled
	// execution plan, warmed under the worker slot, so it is ready to
	// simulate without re-walking the AST.
	Design *compile.Design
	// CompileErr is the parse error when parsing failed (nil for
	// elaboration failures, which are reported through Diags).
	CompileErr error
	// Diags holds the compiler diagnostics (which include at least one
	// error when Status is StatusCompileError and CompileErr is nil).
	Diags []compile.Diagnostic
	// Formal is the bounded-check result; nil on compile errors, check
	// errors and Compile verdicts.
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

// Compile parses and elaborates src: the compile half of every check. Its
// verdict is StatusPass with the design and diagnostics, or
// StatusCompileError. It reads no cache, takes no worker slot and builds no
// simulator plan; Service.Compile is the cached, pooled and plan-warmed form.
func Compile(src string) Verdict {
	d, diags, err := compile.Compile(src)
	if err != nil {
		return compileErrVerdict(err)
	}
	v := Verdict{Record: Record{Status: StatusPass, DiagText: compile.FormatDiags(diags)}, Design: d, Diags: diags}
	if d == nil || compile.HasErrors(diags) {
		v.Status, v.Log, v.Design = StatusCompileError, v.DiagText, nil
	}
	return v
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
	v := Compile(src)
	if v.Status != StatusPass {
		return v, nil
	}
	res, err := formal.Check(ctx, v.Design, opts)
	if err != nil {
		v.Status, v.Log = StatusError, err.Error()
		return v, err
	}
	v.Formal = res
	v.Log, v.Strategy, v.Runs = res.Log, res.Strategy, res.Runs
	v.VacuousAsserts = append([]string(nil), res.VacuousAsserts...)
	if !res.Pass {
		v.Status = StatusAssertFail
		if res.Failure != nil {
			v.FailedAsserts = []string{res.Failure.Assert.Name}
		}
		v.Counterexample = extractStimulus(v.Design, res.Trace)
	}
	return v, nil
}

// cacheKey hashes the source, the candidate assertion set and the
// normalised options. The assertion items are hashed through their printed
// form (printing a throwaway module is cheap relative to re-printing and
// re-parsing the full design, which happens only on a miss).
func cacheKey(src string, assertions []verilog.Item, opts Options) Key {
	return digest(src, assertions, opts.Normalized(), 0)
}

// compileKey addresses Service.Compile's design of src. Its flag byte is
// the one the retired compile-only option set, so the key is the one a
// compile-only check had, and no check's key equals it.
func compileKey(src string) Key { return digest(src, nil, Options{}.Normalized(), 1) }

// digest hashes normalised options, one little-endian word per field, with
// a flag byte, then the source and the assertion set.
func digest(src string, assertions []verilog.Item, o Options, flag byte) Key {
	var meta [8 * 7]byte
	binary.LittleEndian.PutUint64(meta[0:], uint64(o.Seed))
	binary.LittleEndian.PutUint64(meta[8:], uint64(o.Depth))
	// NoRandom is laid out as 0 runs, as it was when Normalized mapped it there.
	binary.LittleEndian.PutUint64(meta[16:], uint64(max(o.RandomRuns, 0)))
	binary.LittleEndian.PutUint64(meta[24:], uint64(o.MaxExhaustiveBits))
	binary.LittleEndian.PutUint64(meta[32:], uint64(o.MaxConstBits))
	meta[40] = flag
	if o.FourState {
		meta[41] = 1
	}
	// meta[48:56] held the lane count of the retired Lanes option. It
	// stays zero, so a key equals the one a lanes-0 request always made.
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
