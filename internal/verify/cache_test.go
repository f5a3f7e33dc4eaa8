package verify

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/bugs"
	"repro/internal/corpus"
	"repro/internal/testenv"
)

// TestCacheHoldsRecords pins what the cached path keeps: Check returns its
// Record without the design, diagnostics, parse error or formal result
// behind it, fresh or cached, while Service.Compile returns the one shared
// design every time.
func TestCacheHoldsRecords(t *testing.T) {
	svc := New(2)
	ctx := context.Background()
	for _, src := range []string{passSrc, failSrc, elabErrSrc, parseErrSrc} {
		for i := 0; i < 2; i++ {
			v, err := svc.Check(ctx, src, nil, Options{Depth: 8})
			if err != nil {
				t.Fatal(err)
			}
			if v.Cached != (i == 1) {
				t.Fatalf("check %d: cached = %v", i, v.Cached)
			}
			if v.Design != nil || v.Formal != nil || v.Diags != nil || v.CompileErr != nil {
				t.Errorf("check %d of a %v verdict carries warm fields: design=%v formal=%v diags=%d compileErr=%v",
					i, v.Status, v.Design != nil, v.Formal != nil, len(v.Diags), v.CompileErr)
			}
		}
	}
	first, err := svc.Compile(ctx, passSrc)
	if err != nil {
		t.Fatal(err)
	}
	again, err := svc.Compile(ctx, passSrc)
	if err != nil {
		t.Fatal(err)
	}
	if first.Design == nil || again.Design != first.Design || !again.Cached {
		t.Errorf("compiled designs: first %p, cached %p (cached=%v); want one shared design",
			first.Design, again.Design, again.Cached)
	}
}

// TestCachedEntryHeapBounded guards the cache's footprint: the live heap a
// resident entry costs, measured over a few hundred distinct catalog
// mutants, must stay under maxEntryBytes. An entry that kept the warm
// verdict (design, plans, formal result and trace) cost about 17.5 KiB; a
// Record costs about 1 KiB.
func TestCachedEntryHeapBounded(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector changes allocation sizes")
	}
	const entries, maxEntryBytes = 400, 4 << 10
	var srcs []string
	seen := map[string]bool{}
	for _, b := range corpus.Catalog() {
		for mu := range bugs.Stream(b.Module, 8) {
			if src := b.SourceWith(mu.Mutant); !seen[src] {
				seen[src] = true
				srcs = append(srcs, src)
			}
		}
		if len(srcs) >= entries {
			break
		}
	}
	svc := New(0)
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, src := range srcs {
		if _, err := svc.Check(ctx, src, nil, Options{Seed: 1, Depth: 12, RandomRuns: 8, MaxExhaustiveBits: 8}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	n := svc.Len()
	if n != len(srcs) || n < entries {
		t.Fatalf("%d cached entries for %d distinct sources, want at least %d", n, len(srcs), entries)
	}
	perEntry := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(n)
	t.Logf("%d cached entries, %d live heap bytes each", n, perEntry)
	if perEntry > maxEntryBytes {
		t.Errorf("a cached entry holds %d bytes of live heap, want at most %d", perEntry, maxEntryBytes)
	}
	runtime.KeepAlive(svc)
}
