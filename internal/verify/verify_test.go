package verify

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/verilog"
)

// passSrc is a design whose assertion holds: q follows a one cycle later.
const passSrc = `module vtest(
    input clk,
    input a,
    output reg q
);
    always @(posedge clk) begin
        q <= a;
    end
    property p_follow;
        @(posedge clk) a |=> q;
    endproperty
    p_follow_assertion: assert property (p_follow)
        else $error("q must follow a");
endmodule
`

// failSrc breaks the same assertion: q is stuck at zero.
const failSrc = `module vtest(
    input clk,
    input a,
    output reg q
);
    always @(posedge clk) begin
        q <= 0;
    end
    property p_follow;
        @(posedge clk) a |=> q;
    endproperty
    p_follow_assertion: assert property (p_follow)
        else $error("q must follow a");
endmodule
`

// elabErrSrc references an undeclared identifier (elaboration error).
const elabErrSrc = `module vtest(
    input clk,
    input a,
    output reg q
);
    always @(posedge clk) begin
        q <= b;
    end
endmodule
`

// parseErrSrc does not parse at all.
const parseErrSrc = `module (((`

// vacuousSrc has an assertion whose antecedent can never match.
const vacuousSrc = `module vtest(
    input clk,
    input a,
    output reg q
);
    always @(posedge clk) begin
        q <= a;
    end
    property p_vac;
        @(posedge clk) a && !a |=> q;
    endproperty
    p_vac_assertion: assert property (p_vac)
        else $error("unreachable");
endmodule
`

// loopSrc compiles but cannot simulate: x drives itself through an
// inverter, so the combinational logic never settles (an error verdict).
const loopSrc = `module vtest(
    input clk,
    input a,
    output w
);
    wire x;
    assign x = ~x | a;
    assign w = x;
    property p_w;
        @(posedge clk) a |-> w;
    endproperty
    p_w_assertion: assert property (p_w)
        else $error("w must follow a");
endmodule
`

// TestRunMatchesCheck pins the uncached path to the cached one: for every
// verdict class Run returns the Record Check returns, counts one miss and
// leaves the cache untouched.
func TestRunMatchesCheck(t *testing.T) {
	for _, tc := range []struct {
		name   string
		src    string
		opts   Options
		status Status
	}{
		{"pass", passSrc, Options{Depth: 8}, StatusPass},
		{"vacuous", vacuousSrc, Options{Depth: 8}, StatusPass},
		{"assert-fail", failSrc, Options{Depth: 8}, StatusAssertFail},
		{"four-state", failSrc, Options{Depth: 8, FourState: true}, StatusAssertFail},
		{"elaboration-error", elabErrSrc, Options{Depth: 8}, StatusCompileError},
		{"parse-error", parseErrSrc, Options{Depth: 8}, StatusCompileError},
		{"error", loopSrc, Options{Depth: 8}, StatusError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := New(2)
			want, werr := svc.Check(context.Background(), tc.src, nil, tc.opts)
			before := svc.Metrics()
			got, gerr := svc.Run(context.Background(), tc.src, nil, tc.opts)
			after := svc.Metrics()
			if got.Status != tc.status {
				t.Fatalf("Run status = %v, want %v; log:\n%s", got.Status, tc.status, got.Log)
			}
			if !reflect.DeepEqual(got.Record, want.Record) {
				t.Errorf("Run record differs from Check's:\nRun:   %+v\nCheck: %+v", got.Record, want.Record)
			}
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Errorf("Run err = %v, Check err = %v", gerr, werr)
			}
			if got.Cached {
				t.Error("Run verdict reported as cached")
			}
			if after.Misses != before.Misses+1 || after.Hits != before.Hits {
				t.Errorf("Run moved misses %d -> %d and hits %d -> %d; want one miss, no hit",
					before.Misses, after.Misses, before.Hits, after.Hits)
			}
			if after.Entries != before.Entries || after.InFlight != 0 {
				t.Errorf("Run left %d entries (was %d) and %d in flight; want the cache untouched and none in flight",
					after.Entries, before.Entries, after.InFlight)
			}
		})
	}
}

func TestCheckPassAndCacheHit(t *testing.T) {
	svc := New(2)
	v1, err := svc.Check(context.Background(), passSrc, nil, Options{Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if v1.Status != StatusPass || !v1.Passed() {
		t.Fatalf("status = %v, want pass; log:\n%s", v1.Status, v1.Log)
	}
	if v1.Cached {
		t.Error("first check reported as cached")
	}
	v2, err := svc.Check(context.Background(), passSrc, nil, Options{Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Cached {
		t.Error("second identical check missed the cache")
	}
	if v2.Status != v1.Status || v2.Log != v1.Log {
		t.Error("cached verdict differs from fresh verdict")
	}
	if m := svc.Metrics(); m.Hits != 1 || m.Misses != 1 {
		t.Errorf("metrics = %d hits, %d misses; want 1, 1", m.Hits, m.Misses)
	}
	if svc.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", svc.Len())
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	svc := New(2)
	base := Options{Seed: 1, Depth: 8, RandomRuns: 4}
	variants := []struct {
		name string
		src  string
		opts Options
	}{
		{"base", passSrc, base},
		{"source", failSrc, base},
		{"seed", passSrc, Options{Seed: 2, Depth: 8, RandomRuns: 4}},
		{"depth", passSrc, Options{Seed: 1, Depth: 9, RandomRuns: 4}},
		{"runs", passSrc, Options{Seed: 1, Depth: 8, RandomRuns: 5}},
	}
	// Service.Compile of the same source addresses an entry of its own.
	compileVariant := func() (Verdict, error) { return svc.Compile(context.Background(), passSrc) }
	for _, v := range variants {
		if _, err := svc.Check(context.Background(), v.src, nil, v.opts); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
	}
	if _, err := compileVariant(); err != nil {
		t.Fatalf("compile: %v", err)
	}
	if m := svc.Metrics(); m.Misses != uint64(len(variants)+1) {
		t.Errorf("misses = %d, want %d (every variant must address its own entry)", m.Misses, len(variants)+1)
	}
	// Replaying every variant must be pure hits.
	for _, v := range variants {
		got, err := svc.Check(context.Background(), v.src, nil, v.opts)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if !got.Cached {
			t.Errorf("%s: replay missed the cache", v.name)
		}
	}
	if got, err := compileVariant(); err != nil || !got.Cached {
		t.Errorf("compile: replay missed the cache (err=%v)", err)
	}
	if m := svc.Metrics(); m.Hits != uint64(len(variants)+1) {
		t.Errorf("hits = %d, want %d", m.Hits, len(variants)+1)
	}
}

func TestOptionsNormalisedForKey(t *testing.T) {
	svc := New(2)
	if _, err := svc.Check(context.Background(), passSrc, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	// Depth 16 and RandomRuns 48 are the formal defaults: same entry.
	v, err := svc.Check(context.Background(), passSrc, nil, Options{Depth: 16, RandomRuns: 48})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Cached {
		t.Error("defaulted and explicit-default options should share a cache entry")
	}
}

// FuzzOptionsKey decodes arbitrary /check option JSON and requires the
// key to see only the canonical form: Normalized is idempotent, and the
// options and their normalised form address one cache entry.
func FuzzOptionsKey(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"seed":7,"depth":40,"random_runs":10,"max_exhaustive_bits":8,"four_state":true}`,
		`{"depth":-3,"random_runs":-1,"max_exhaustive_bits":99,"max_const_bits":0}`,
		`{"lanes":64,"compile_only":true}`,
		`{"seed":-9223372036854775808,"depth":9223372036854775807,"random_runs":-9223372036854775808}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var o Options
		if json.Unmarshal(data, &o) != nil {
			return
		}
		n := o.Normalized()
		if n.Normalized() != n {
			t.Fatalf("Normalized is not idempotent: %+v -> %+v -> %+v", o, n, n.Normalized())
		}
		if cacheKey(passSrc, nil, o) != cacheKey(passSrc, nil, n) {
			t.Fatalf("%+v and its normalised form %+v have different keys", o, n)
		}
	})
}

// TestCacheKeyPinned pins the key bytes: records stored on disk are found
// by these keys, so a change to the key layout (such as dropping an
// option's bytes instead of leaving them zero) orphans every stored record.
// The last row is Service.Compile's key, the key of the retired
// compile-only option.
func TestCacheKeyPinned(t *testing.T) {
	src := corpus.EdgeDetect().Source()
	for _, tc := range []struct {
		name string
		key  Key
		want string
	}{
		{"default", cacheKey(src, nil, Options{}), "3af045d10086a958421bc42f5fce0e665664ac8976e08453e40ab272b3b5f9db"},
		{"set", cacheKey(src, nil, Options{Seed: 7, Depth: 40, RandomRuns: 10, MaxExhaustiveBits: 8, FourState: true}), "5d763b60473ecd6cb5aff79e6fc5edb35c93b1c30942fa6e813c2b144abf2654"},
		{"compile", compileKey(src), "f6900f3f3a1dca670dec777ab9651fa4017c26309c019b4b2094c98d761b18e1"},
	} {
		if hex.EncodeToString(tc.key[:]) != tc.want {
			t.Errorf("%s: key %x, want %s", tc.name, tc.key, tc.want)
		}
	}
}

// TestStatusClassification reads the warm fields (CompileErr, Diags,
// Formal), which only Run returns; TestRunMatchesCheck holds Check's
// Records equal to Run's.
func TestStatusClassification(t *testing.T) {
	svc := New(2)

	v, err := svc.Run(context.Background(), elabErrSrc, nil, Options{Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusCompileError || v.CompileErr != nil || len(v.Diags) == 0 {
		t.Errorf("elaboration error misclassified: %+v", v.Status)
	}

	v, err = svc.Run(context.Background(), parseErrSrc, nil, Options{Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusCompileError || v.CompileErr == nil {
		t.Errorf("parse error misclassified: %+v", v.Status)
	}

	v, err = svc.Run(context.Background(), failSrc, nil, Options{Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusAssertFail || v.Formal == nil || v.Formal.Failure == nil {
		t.Errorf("assertion failure misclassified: %v", v.Status)
	}
	if v.Log == "" {
		t.Error("failing verdict carries no log")
	}

	v, err = svc.Run(context.Background(), vacuousSrc, nil, Options{Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusPass || len(v.Vacuous()) == 0 {
		t.Errorf("vacuous assertion not reported: status=%v vacuous=%v", v.Status, v.Vacuous())
	}
}

// TestCompileOnly holds the two compile calls to each other: for every
// compile outcome the uncached Compile returns the Record Service.Compile
// returns, with no formal result, and counts no miss; Service.Compile
// counts one, and only its design carries a built plan.
func TestCompileOnly(t *testing.T) {
	// planned peeks at a design's plan without building it.
	planned := func(d *compile.Design) bool { return d.CachedPlan(func() any { return nil }) != nil }
	for _, tc := range []struct {
		name   string
		src    string
		status Status
	}{
		{"pass", failSrc, StatusPass},
		{"elaboration-error", elabErrSrc, StatusCompileError},
		{"parse-error", parseErrSrc, StatusCompileError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := New(2)
			want, err := svc.Compile(context.Background(), tc.src)
			if err != nil {
				t.Fatal(err)
			}
			before := svc.Metrics()
			got := Compile(tc.src)
			if after := svc.Metrics(); after != before || before.Misses != 1 {
				t.Errorf("metrics %+v after Service.Compile, %+v after Compile; want one miss, then none", before, after)
			}
			if got.Status != tc.status || !reflect.DeepEqual(got.Record, want.Record) {
				t.Errorf("Compile record %+v, Service.Compile record %+v, want status %v", got.Record, want.Record, tc.status)
			}
			compiled := tc.status == StatusPass
			if got.Formal != nil || (got.Design != nil) != compiled || (want.Design != nil) != compiled {
				t.Fatalf("Compile design=%v formal=%v, Service.Compile design=%v; want designs only on a pass",
					got.Design != nil, got.Formal != nil, want.Design != nil)
			}
			if compiled && (planned(got.Design) || !planned(want.Design)) {
				t.Errorf("plans built: Compile %v, Service.Compile %v; want false, true", planned(got.Design), planned(want.Design))
			}
		})
	}
}

// TestAssertionSubstitution exercises the candidate-insertion flow: the
// module's own assertions are replaced by the supplied set, so a failing
// embedded assertion is invisible when a passing candidate is checked.
func TestAssertionSubstitution(t *testing.T) {
	donor, err := verilog.Parse(passSrc)
	if err != nil {
		t.Fatal(err)
	}
	var items []verilog.Item
	for _, it := range donor.Items {
		switch it.(type) {
		case *verilog.PropertyDecl, *verilog.AssertItem:
			items = append(items, it)
		}
	}
	if len(items) != 2 {
		t.Fatalf("donor items = %d, want 2", len(items))
	}
	svc := New(2)
	// failSrc has logic q<=0 whose embedded assertion fails; substituting
	// does not change the logic, so the candidate must still fail...
	v, err := svc.Check(context.Background(), failSrc, items, Options{Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusAssertFail {
		t.Errorf("substituted candidate on broken logic: %v, want assert-fail", v.Status)
	}
	// ...while on the correct logic the same candidate passes.
	v, err = svc.Check(context.Background(), passSrc, items, Options{Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusPass {
		t.Errorf("substituted candidate on correct logic: %v, want pass; log:\n%s", v.Status, v.Log)
	}
	// The assertion set is part of the cache key: nil-assertion checks of
	// the same source are separate entries.
	before := svc.Metrics().Hits
	if _, err := svc.Check(context.Background(), passSrc, nil, Options{Depth: 8}); err != nil {
		t.Fatal(err)
	}
	if after := svc.Metrics().Hits; after != before {
		t.Error("embedded-assertion check unexpectedly hit the candidate entry")
	}
}

// TestClocklessCandidateIsCompileError: a candidate inline assertion
// without a clocking event parses, so substituting it must print it (the
// printer once dereferenced its nil clock), and compile reports it as a
// compile-error verdict, through Run and through the cached Check alike.
func TestClocklessCandidateIsCompileError(t *testing.T) {
	m, err := verilog.Parse("module c(input clk, input a, output y);\nassert property (y == a);\nendmodule\n")
	if err != nil {
		t.Fatal(err)
	}
	items := m.Items
	svc := New(2)
	for name, check := range map[string]func(context.Context, string, []verilog.Item, Options) (Verdict, error){
		"Run": svc.Run, "Check": svc.Check,
	} {
		v, err := check(context.Background(), passSrc, items, Options{Depth: 8})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v.Status != StatusCompileError || !strings.Contains(v.Log, "inline assertion lacks a clocking event") {
			t.Errorf("%s: status %v log %q, want a compile error naming the missing clock", name, v.Status, v.Log)
		}
	}
}

// TestConcurrentSingleflight hammers one service from many goroutines
// (run under -race in CI): every distinct (source, options) pair must be
// computed exactly once, and all callers must agree on the verdict.
func TestConcurrentSingleflight(t *testing.T) {
	svc := New(4)
	sources := []string{passSrc, failSrc, elabErrSrc, vacuousSrc}
	const loops = 16
	verdicts := make([][]Status, len(sources))
	for i := range verdicts {
		verdicts[i] = make([]Status, loops)
	}
	var wg sync.WaitGroup
	for g := 0; g < loops; g++ {
		for si := range sources {
			g, si := g, si
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := svc.Check(context.Background(), sources[si], nil, Options{Depth: 8})
				if err != nil {
					t.Errorf("check: %v", err)
					return
				}
				verdicts[si][g] = v.Status
			}()
		}
	}
	wg.Wait()
	if m := svc.Metrics(); m.Misses != uint64(len(sources)) {
		t.Errorf("misses = %d, want %d (singleflight must coalesce duplicates)", m.Misses, len(sources))
	}
	for si := range sources {
		for g := 1; g < loops; g++ {
			if verdicts[si][g] != verdicts[si][0] {
				t.Fatalf("source %d: goroutines disagree: %v vs %v", si, verdicts[si][g], verdicts[si][0])
			}
		}
	}
}

// TestPoolOfOneDoesNotDeadlock proves fan-out beyond the worker count is
// safe: 16 concurrent checks through a single-worker pool all complete.
func TestPoolOfOneDoesNotDeadlock(t *testing.T) {
	svc := New(1)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := fmt.Sprintf("%s// variant %d\n", passSrc, g%4)
			if _, err := svc.Check(context.Background(), src, nil, Options{Depth: 6}); err != nil {
				t.Errorf("check: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestGenerationalEviction shrinks the generation bound and proves old
// one-shot entries age out while a re-requested entry is promoted and
// survives a rotation.
func TestGenerationalEviction(t *testing.T) {
	svc := New(2)
	svc.entries.max = 4
	srcAt := func(i int) string { return fmt.Sprintf("%s// fill %d\n", passSrc, i) }

	if _, err := svc.Check(context.Background(), passSrc, nil, Options{Depth: 6}); err != nil {
		t.Fatal(err)
	}
	// Keep passSrc hot (promoted on hit) while filling two generations.
	for i := 0; i < 10; i++ {
		if _, err := svc.Check(context.Background(), srcAt(i), nil, Options{Depth: 6}); err != nil {
			t.Fatal(err)
		}
		if v, err := svc.Check(context.Background(), passSrc, nil, Options{Depth: 6}); err != nil || !v.Cached {
			t.Fatalf("hot entry evicted after %d inserts (err=%v)", i+1, err)
		}
	}
	if n := svc.Len(); n > 2*svc.entries.max {
		t.Errorf("cache holds %d entries, want <= %d (bounded)", n, 2*svc.entries.max)
	}
	// The earliest filler must have aged out: re-checking it is a miss.
	missesBefore := svc.Metrics().Misses
	if _, err := svc.Check(context.Background(), srcAt(0), nil, Options{Depth: 6}); err != nil {
		t.Fatal(err)
	}
	if missesAfter := svc.Metrics().Misses; missesAfter != missesBefore+1 {
		t.Error("oldest one-shot entry was still resident after two rotations")
	}
}

func TestDefaultIsShared(t *testing.T) {
	if Default() != Default() {
		t.Error("Default must return the process-wide instance")
	}
}
