package augment

import (
	"encoding/json"
	"errors"
	"iter"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/verify"
	"repro/internal/verilog"
)

// tinySource is a small deterministic blueprint source shared by the
// streaming tests: a handful of catalog designs plus a few procedurally
// generated ones.
func tinySource() corpus.Source {
	return corpus.Multi(
		corpus.FuncSource("tiny", func() []*corpus.Blueprint {
			return []*corpus.Blueprint{
				corpus.Counter(4, 9),
				corpus.ShiftReg(3),
				corpus.Accu(4, 2),
				corpus.Handshake(2),
				corpus.Parity(8),
			}
		}),
		corpus.NewGenerator(corpus.GenConfig{Seed: 21, N: 5}),
	)
}

// TestRunDeterministicAcrossWorkers is the pipeline's core contract: for a
// fixed seed the output is byte-identical no matter how many workers run
// Stage 2/3.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	marshal := func(workers int) []byte {
		out, err := Run(Config{
			Seed:               3,
			MutationsPerDesign: 3,
			RandomRuns:         6,
			Workers:            workers,
			Source:             tinySource(),
		})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	serial := marshal(1)
	parallel := marshal(8)
	if string(serial) != string(parallel) {
		t.Fatal("pipeline output differs between 1 and 8 workers")
	}
	if string(serial) != string(marshal(3)) {
		t.Fatal("pipeline output differs between 1 and 3 workers")
	}
}

// TestRunStreamOrderAndContent: the streamed products match the collected
// Output exactly, stream order included.
func TestRunStreamOrderAndContent(t *testing.T) {
	cfg := Config{Seed: 5, MutationsPerDesign: 2, RandomRuns: 6, Source: tinySource()}
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got collector
	got.out = &Output{}
	st, err := RunStream(cfg, &got)
	if err != nil {
		t.Fatal(err)
	}
	if st != out.Stats {
		t.Errorf("stats differ:\nstream: %+v\nrun:    %+v", st, out.Stats)
	}
	if len(got.out.VerilogPT) != len(out.VerilogPT) {
		t.Fatalf("PT stream %d entries, run %d", len(got.out.VerilogPT), len(out.VerilogPT))
	}
	for i := range got.out.VerilogPT {
		if got.out.VerilogPT[i] != out.VerilogPT[i] {
			t.Fatalf("PT entry %d differs", i)
		}
	}
	// The split may drop train-only (Reset-class) samples whose module
	// landed on the test side, so compare through the same split rather
	// than by raw count.
	side := Split(cfg, &got.names)
	var train, test int
	for _, s := range got.samples {
		switch side(s.Module, s.TrainOnly()) {
		case dataset.SideTrain:
			train++
		case dataset.SideTest:
			test++
		}
	}
	if train != len(out.SVABug) || test != len(out.SVAEvalMachine) {
		t.Errorf("sample stream splits to %d+%d, run %d+%d",
			train, test, len(out.SVABug), len(out.SVAEvalMachine))
	}
}

// TestRunWithGenerator: Config.Generate grows the corpus by exactly N
// verified, content-distinct designs on top of the catalog.
func TestRunWithGenerator(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run in -short mode")
	}
	const gen = 6
	out, err := Run(Config{Seed: 11, Generate: gen, MutationsPerDesign: 2, RandomRuns: 6})
	if err != nil {
		t.Fatal(err)
	}
	catalog := map[string]bool{}
	for _, b := range corpus.Catalog() {
		catalog[b.Name()] = true
	}
	goldens := 0
	generated := 0
	seen := map[string]bool{}
	for _, e := range out.VerilogPT {
		if !e.Compiles {
			continue
		}
		if seen[e.Code] {
			t.Errorf("duplicate PT code for %s", e.Name)
		}
		seen[e.Code] = true
		goldens++
		if !catalog[e.Name] {
			generated++
		}
	}
	if generated < gen {
		t.Errorf("found %d generated designs in Verilog-PT, want >= %d", generated, gen)
	}
	if goldens < len(catalog)+gen {
		t.Errorf("%d compiling PT entries, want >= %d", goldens, len(catalog)+gen)
	}
	if out.Stats.Compiled != goldens {
		t.Errorf("stats.Compiled = %d, PT says %d", out.Stats.Compiled, goldens)
	}
}

// TestRunStreamSinkError: a failing sink aborts the stream with its error.
func TestRunStreamSinkError(t *testing.T) {
	boom := errors.New("disk full")
	_, err := RunStream(
		Config{Seed: 3, MutationsPerDesign: 2, RandomRuns: 6, Source: tinySource()},
		&failingSink{after: 3, err: boom},
	)
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want sink error", err)
	}
}

type failingSink struct {
	n     int
	after int
	err   error
}

func (f *failingSink) PT(dataset.PTEntry) error { return f.count() }

func (f *failingSink) Bug(dataset.BugEntry) error { return f.count() }

func (f *failingSink) Sample(dataset.SVASample) error { return f.count() }

func (f *failingSink) count() error {
	f.n++
	if f.n > f.after {
		return f.err
	}
	return nil
}

// TestRunStreamLeavesCacheUnchanged: a pipeline run leaves nothing in the
// shared verdict cache. Every check it makes is one-shot, including the
// golden compile, so a compiled golden never outlives its design's
// Stage-2 worker.
func TestRunStreamLeavesCacheUnchanged(t *testing.T) {
	svc := verify.Default()
	before := svc.Len()
	src := corpus.Multi(
		corpus.FuncSource("pair", func() []*corpus.Blueprint {
			return []*corpus.Blueprint{corpus.Counter(3, 5), corpus.Parity(6)}
		}),
		corpus.NewGenerator(corpus.GenConfig{Seed: 77, N: 3}),
	)
	if _, err := RunStream(Config{Seed: 5, MutationsPerDesign: 2, RandomRuns: 6, Source: src}, &collector{out: &Output{}}); err != nil {
		t.Fatal(err)
	}
	if grown := svc.Len() - before; grown != 0 {
		t.Errorf("verdict cache grew by %d entries, want 0", grown)
	}
}

// brokenGolden is a blueprint that parses but does not elaborate: its
// register is driven from an undeclared signal.
func brokenGolden(t *testing.T) *corpus.Blueprint {
	t.Helper()
	m, err := verilog.Parse("module broken_golden (input clk, output reg q);\n" +
		"always @(posedge clk) q <= undeclared_d;\nendmodule\n")
	if err != nil {
		t.Fatal(err)
	}
	return &corpus.Blueprint{Family: "broken", Module: m}
}

// TestRunStreamBrokenGolden: a source that yields a golden which does not
// compile fails the run with an error naming the design. Sources promise
// valid designs, so this is a corpus bug, not a filterable input.
func TestRunStreamBrokenGolden(t *testing.T) {
	bad := brokenGolden(t)
	src := corpus.FuncSource("broken", func() []*corpus.Blueprint {
		return []*corpus.Blueprint{corpus.Counter(3, 5), bad, corpus.Parity(6)}
	})
	_, err := RunStream(Config{Seed: 5, MutationsPerDesign: 2, RandomRuns: 6, Source: src}, &collector{out: &Output{}})
	if err == nil || !strings.Contains(err.Error(), bad.Name()) || !strings.Contains(err.Error(), "does not compile") {
		t.Fatalf("got error %v, want one naming %s as not compiling", err, bad.Name())
	}
}

// countingSource streams a fast parity design, then a slower accumulator,
// then more parity designs, counting the blueprints it has handed out.
type countingSource struct {
	n       int
	yielded atomic.Int64
}

func (s *countingSource) Name() string { return "counting" }

func (s *countingSource) Blueprints() iter.Seq[*corpus.Blueprint] {
	return func(yield func(*corpus.Blueprint) bool) {
		for i := 0; i < s.n; i++ {
			s.yielded.Add(1)
			b := corpus.Parity(4 + i)
			if i == 1 {
				b = corpus.Accu(8, 4)
			}
			if !yield(b) {
				return
			}
		}
	}
}

// firstSampleSink records how many blueprints its source had yielded when
// the first design was flushed, then stops the run.
type firstSampleSink struct {
	src     *countingSource
	module  string
	yielded int64
}

var errFirstSample = errors.New("first sample seen")

func (f *firstSampleSink) PT(dataset.PTEntry) error { return nil }

func (f *firstSampleSink) Bug(dataset.BugEntry) error { return nil }

func (f *firstSampleSink) Sample(s dataset.SVASample) error {
	f.module, f.yielded = s.Module, f.src.yielded.Load()
	return errFirstSample
}

// TestRunStreamBoundedLookahead: Stage 1 pulls blueprints only as fast as
// Stage 2 takes them. With one worker, when the first design is flushed
// the source has yielded that design, the one running, the one queued and
// the one the producer holds while it waits for the queue — however long
// the source is. The second design runs for tens of milliseconds, so the
// writer flushes the first before the worker can take a third.
func TestRunStreamBoundedLookahead(t *testing.T) {
	src := &countingSource{n: 12}
	sink := &firstSampleSink{src: src}
	_, err := RunStream(Config{Seed: 5, MutationsPerDesign: 1, RandomRuns: 24, Workers: 1, Source: src}, sink)
	if !errors.Is(err, errFirstSample) {
		t.Fatalf("got %v, want the run stopped at the first sample", err)
	}
	if want := corpus.Parity(4).Name(); sink.module != want {
		t.Fatalf("first sample is from %s, want %s", sink.module, want)
	}
	if sink.yielded > 4 {
		t.Errorf("source had yielded %d of %d blueprints when the first design was flushed, want at most 4", sink.yielded, src.n)
	}
}
