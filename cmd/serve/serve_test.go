package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/sim"
	"repro/internal/sva"
	"repro/internal/verify"
)

// testServer boots the HTTP front end over a fresh service (plus optional
// store) the way main() wires it, behind an httptest listener.
func testServer(t *testing.T, store verify.Store, cfg serverConfig) (*httptest.Server, *server) {
	t.Helper()
	svc := verify.New(4)
	if store != nil {
		svc.SetStore(store)
	}
	srv := newServer(svc, cfg)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts, srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getMetrics(t *testing.T, base string) metricsResponse {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestServeCheckEndToEnd(t *testing.T) {
	ts, _ := testServer(t, nil, serverConfig{})
	resp, body := postJSON(t, ts.URL+"/check", checkRequest{
		Source:  corpus.Counter(4, 9).Source(),
		Options: checkOptions{Seed: 1, Depth: 12},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got checkResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != verify.StatusPass || got.Cached {
		t.Fatalf("fresh check = status %v cached %v, want pass/false", got.Status, got.Cached)
	}
	if got.Runs == 0 || got.Strategy == "" {
		t.Fatalf("record missing run bookkeeping: %s", body)
	}

	// Candidate assertion text is parsed and substituted; a property the
	// golden design violates must come back as an assertion failure with
	// the failing assertion named.
	resp, body = postJSON(t, ts.URL+"/check", checkRequest{
		Source: corpus.EdgeDetect().Source(),
		Assertions: "property p_never; @(posedge clk) pulse == 1; endproperty\n" +
			"p_never_assertion: assert property (p_never);\n",
		Options: checkOptions{Seed: 1, Depth: 12},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != verify.StatusAssertFail {
		t.Fatalf("bad candidate = status %v, want assert-fail: %s", got.Status, body)
	}
	if len(got.FailedAsserts) != 1 || got.FailedAsserts[0] != "p_never_assertion" {
		t.Fatalf("FailedAsserts = %v, want [p_never_assertion]", got.FailedAsserts)
	}
	if got.Counterexample == nil || len(got.Counterexample.Rows) == 0 {
		t.Fatalf("assert-fail record carries no counterexample: %s", body)
	}

	if resp, body := postJSON(t, ts.URL+"/check", checkRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty source: status %d (%s), want 400", resp.StatusCode, body)
	}
}

// TestServeCoalescing sends the same expensive check from many concurrent
// clients and requires exactly one computation: everyone else either
// coalesces onto the in-flight entry or hits the completed one.
func TestServeCoalescing(t *testing.T) {
	ts, _ := testServer(t, nil, serverConfig{})
	req := checkRequest{
		Source:  corpus.ALU(8, 4).Source(),
		Options: checkOptions{Seed: 3, Depth: 12},
	}
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/check", req)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			var got checkResponse
			if err := json.Unmarshal(body, &got); err != nil {
				errs <- err
				return
			}
			if got.Status != verify.StatusPass {
				errs <- fmt.Errorf("status %v, want pass", got.Status)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := getMetrics(t, ts.URL).Verify
	if m.Misses != 1 {
		t.Fatalf("misses = %d for %d duplicate clients, want 1 computation", m.Misses, clients)
	}
	if m.Hits+m.Coalesced != clients-1 {
		t.Fatalf("hits(%d) + coalesced(%d) = %d, want %d", m.Hits, m.Coalesced, m.Hits+m.Coalesced, clients-1)
	}
	if sm := getMetrics(t, ts.URL).Server; sm.Accepted != clients {
		t.Fatalf("accepted = %d, want %d", sm.Accepted, clients)
	}
}

// TestServePersistenceAcrossRestart is the two-run acceptance check: a
// second server over the same store directory must answer every repeated
// check from disk — zero computations, byte-identical records — in both
// value domains, matching an in-process service bit for bit.
func TestServePersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	requests := []checkRequest{
		{Source: corpus.Counter(4, 9).Source(), RecordOnly: true,
			Options: checkOptions{Seed: 1, Depth: 12}},
		{Source: corpus.Counter(4, 9).Source(), RecordOnly: true,
			Options: checkOptions{Seed: 1, Depth: 12, FourState: true}},
		{Source: corpus.EdgeDetect().Source(), RecordOnly: true,
			Assertions: "property p_never; @(posedge clk) pulse == 1; endproperty\n" +
				"p_never_assertion: assert property (p_never);\n",
			Options: checkOptions{Seed: 1, Depth: 12}},
		{Source: corpus.EdgeDetect().Source(), RecordOnly: true,
			Assertions: "property p_never; @(posedge clk) pulse == 1; endproperty\n" +
				"p_never_assertion: assert property (p_never);\n",
			Options: checkOptions{Seed: 1, Depth: 12, FourState: true}},
		{Source: "module broken(input clk, output reg q);\n" +
			"  always @(posedge clk) q <= undeclared;\nendmodule\n",
			RecordOnly: true, Options: checkOptions{Seed: 1, Depth: 12}},
	}

	// Run 1: compute everything, persisting through the tiered store.
	openStore := func() verify.Store {
		ds, err := verify.OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return verify.NewTiered(verify.NewMemStore(0), ds)
	}
	store1 := openStore()
	ts1, _ := testServer(t, store1, serverConfig{})
	firstRun := make([][]byte, len(requests))
	for i, req := range requests {
		resp, body := postJSON(t, ts1.URL+"/check", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run 1 request %d: status %d: %s", i, resp.StatusCode, body)
		}
		firstRun[i] = body
	}
	ts1.Close()
	if err := store1.Close(); err != nil { // drain write-behind, like main() on shutdown
		t.Fatal(err)
	}

	// The reference: an in-process service with no store at all. The
	// served records must match it byte for byte in both value domains.
	ref := verify.New(4)
	for i, req := range requests {
		items, err := parseAssertions(req.Assertions)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := ref.CheckRecord(context.Background(), req.Source, items, req.Options.verify())
		if err != nil {
			t.Fatalf("reference request %d: %v", i, err)
		}
		want, err := json.Marshal(checkResponse{Record: rec})
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.TrimSpace(firstRun[i]); !bytes.Equal(got, want) {
			t.Fatalf("run 1 request %d differs from in-process service:\n got %s\nwant %s", i, got, want)
		}
	}

	// Run 2: a fresh process image (new service, new memory tier) over the
	// same directory. Every answer must come from disk.
	ts2, _ := testServer(t, openStore(), serverConfig{})
	for i, req := range requests {
		resp, body := postJSON(t, ts2.URL+"/check", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run 2 request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if !bytes.Equal(body, firstRun[i]) {
			t.Fatalf("run 2 request %d not byte-identical:\n run1 %s\n run2 %s", i, firstRun[i], body)
		}
	}
	m := getMetrics(t, ts2.URL).Verify
	if m.Misses != 0 {
		t.Fatalf("run 2 misses = %d, want 0 (every answer from the store)", m.Misses)
	}
	if m.DiskHits == 0 {
		t.Fatalf("run 2 disk_hits = 0, want > 0: %+v", m)
	}
}

// stimulusCase is one /stimulus request and the reply the server owes it.
type stimulusCase struct {
	req  stimulusRequest
	want stimulusResponse
}

// scalarReference pairs a request with its in-process scalar run, check and
// log; want.Batched is left for the caller to set.
func scalarReference(t *testing.T, req stimulusRequest) stimulusCase {
	t.Helper()
	d, diags, err := compile.Compile(req.Source)
	if err != nil || compile.HasErrors(diags) {
		t.Fatalf("fixture does not compile: %v %s", err, compile.FormatDiags(diags))
	}
	inputs := d.Inputs(true)
	if len(req.Inputs) > 0 {
		inputs = make([]*compile.Signal, len(req.Inputs))
		for i, name := range req.Inputs {
			inputs[i] = d.Signals[name]
		}
	}
	mode := sim.TwoState
	if req.FourState {
		mode = sim.FourState
	}
	tr, err := sim.RunVecCtx(context.Background(), d, sim.VecStimulus{Inputs: inputs, Rows: req.Rows}, mode)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sva.Check(tr)
	if err != nil {
		t.Fatal(err)
	}
	want := stimulusResponse{Pass: !res.Failed(), Log: sva.FormatLog(d.Module.Name, tr, res.Failures)}
	for _, f := range res.Failures {
		want.FailedAsserts = appendUnique(want.FailedAsserts, f.Assert.Name)
	}
	return stimulusCase{req: req, want: want}
}

// postStimulus sends one case and compares the reply with its reference.
// With anyBatched the reply's Batched flag is not compared.
func postStimulus(url string, tc stimulusCase, anyBatched bool) error {
	buf, err := json.Marshal(tc.req)
	if err != nil {
		return err
	}
	resp, err := http.Post(url+"/stimulus", "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var got stimulusResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if anyBatched {
		tc.want.Batched = got.Batched
	}
	if !reflect.DeepEqual(got, tc.want) {
		return fmt.Errorf("reply differs from the in-process scalar check:\n got %+v\nwant %+v", got, tc.want)
	}
	return nil
}

// postAll sends every case concurrently, reporting failures on errs.
func postAll(url string, cases []stimulusCase, anyBatched bool, wg *sync.WaitGroup, errs chan<- error) {
	for i, tc := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := postStimulus(url, tc, anyBatched); err != nil {
				errs <- fmt.Errorf("case %d (%d rows): %w", i, len(tc.req.Rows), err)
			}
		}()
	}
}

// drainErrors fails the test with every error sent on errs.
func drainErrors(t *testing.T, errs chan error) {
	t.Helper()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
}

// batchRun is one batch a batcher decided.
type batchRun struct {
	size   int
	packed bool
}

type gateKey struct {
	d    *compile.Design
	mode sim.Mode
}

// runGate wraps a batcher's check: the first run of each (design, mode)
// is held in flight until release is closed, and every decided batch is
// recorded per key in the order it finished.
type runGate struct {
	b       *batcher
	release chan struct{}

	mu      sync.Mutex
	started map[gateKey]bool
	held    int
	runs    map[gateKey][]batchRun
}

func holdFirstRuns(b *batcher) *runGate {
	g := &runGate{b: b, release: make(chan struct{}), started: map[gateKey]bool{}, runs: map[gateKey][]batchRun{}}
	check := b.check
	b.check = func(ctx context.Context, d *compile.Design, stims []sim.VecStimulus, mode sim.Mode) (*sva.Batch, error) {
		k := gateKey{d, mode}
		g.mu.Lock()
		first := !g.started[k]
		g.started[k] = true
		if first {
			g.held++
		}
		g.mu.Unlock()
		if first {
			<-g.release
		}
		bt, err := check(ctx, d, stims, mode)
		g.mu.Lock()
		g.runs[k] = append(g.runs[k], batchRun{len(stims), bt.Packed})
		g.mu.Unlock()
		return bt, err
	}
	return g
}

// pending is the number of stimuli queued behind runs in flight.
func (g *runGate) pending() int {
	g.b.mu.Lock()
	defer g.b.mu.Unlock()
	n := 0
	for _, q := range g.b.queued {
		n += len(q)
	}
	return n
}

func (g *runGate) heldRuns() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.held
}

// finished is the number of stimuli in batches that have been decided.
func (g *runGate) finished() int {
	n := 0
	for _, runs := range g.batches() {
		for _, r := range runs {
			n += r.size
		}
	}
	return n
}

// batches copies the decided batches, per key.
func (g *runGate) batches() map[gateKey][]batchRun {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := map[gateKey][]batchRun{}
	for k, runs := range g.runs {
		out[k] = slices.Clone(runs)
	}
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// sendBehindHeldRuns sends lead, one case per key, and waits until each
// one's run is held in flight. It then sends rest, waits until every one
// of them is queued or decided, releases the held runs, and checks every
// reply against its reference.
func sendBehindHeldRuns(t *testing.T, url string, g *runGate, lead, rest []stimulusCase) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, len(lead)+len(rest))
	postAll(url, lead, false, &wg, errs)
	waitFor(t, "the lead runs to be held", func() bool { return g.heldRuns() == len(lead) })
	postAll(url, rest, false, &wg, errs)
	waitFor(t, "every stimulus to queue", func() bool { return g.pending()+g.finished() == len(rest) })
	close(g.release)
	wg.Wait()
	drainErrors(t, errs)
}

// brokenEdgeDetect is EdgeDetect with a bug: pulse stays high as long as
// sig is high, so any stimulus holding sig for two sampled cycles fails
// p_pulse.
func brokenEdgeDetect(t *testing.T) string {
	t.Helper()
	src := strings.Replace(corpus.EdgeDetect().Source(),
		"assign pulse = sig && !sig_d;", "assign pulse = sig;", 1)
	if src == corpus.EdgeDetect().Source() {
		t.Fatal("bug injection did not apply")
	}
	return src
}

func testServerBatcher(t *testing.T, lanes int) (*httptest.Server, *runGate) {
	ts, srv := testServer(t, nil, serverConfig{BatchLanes: lanes})
	return ts, holdFirstRuns(srv.batch)
}

// TestServeStimulusBatching holds the first run of a key in flight until
// the other seven compatible stimuli have queued behind it: they must run
// as one packed lane batch once it ends, and every reply must equal the
// in-process scalar check of its stimulus.
func TestServeStimulusBatching(t *testing.T) {
	ts, g := testServerBatcher(t, 8)
	src := brokenEdgeDetect(t)

	stim := func(sig ...uint64) [][]uint64 {
		rows := make([][]uint64, len(sig))
		for c, v := range sig {
			rows[c] = []uint64{v}
		}
		return rows
	}
	cases := []struct {
		rows [][]uint64
		pass bool
	}{
		{stim(0, 0, 0, 0, 0, 0), true},  // never rises: no pulse expected, none fired
		{stim(0, 1, 0, 1, 0, 1), true},  // every high is a fresh rise: buggy pulse matches $rose
		{stim(0, 1, 1, 0, 0, 1), false}, // held high: pulse persists past the rise
		{stim(1, 1, 1, 1, 1, 1), false},
		{stim(0, 0, 1, 1, 0, 0), false},
		{stim(0, 1, 0, 0, 1, 1), false},
		{stim(0, 0, 0, 1, 1, 1), false},
		{stim(0, 1, 0, 1, 1, 0), false},
	}
	var all []stimulusCase
	for i, c := range cases {
		tc := scalarReference(t, stimulusRequest{Source: src, Rows: c.rows})
		if tc.want.Pass != c.pass || (!c.pass && len(tc.want.FailedAsserts) == 0) {
			t.Fatalf("case %d: reference pass = %v (%v), want %v", i, tc.want.Pass, tc.want.FailedAsserts, c.pass)
		}
		tc.want.Batched = i > 0
		all = append(all, tc)
	}
	sendBehindHeldRuns(t, ts.URL, g, all[:1], all[1:])

	var runs []batchRun
	for _, r := range g.batches() {
		runs = append(runs, r...)
	}
	if want := []batchRun{{1, false}, {len(cases) - 1, true}}; !reflect.DeepEqual(runs, want) {
		t.Fatalf("batches = %+v, want one scalar run of 1 then one packed run of %d", runs, len(cases)-1)
	}
	sm := getMetrics(t, ts.URL).Server
	if sm.ScalarRuns != 1 || sm.BatchedRuns != 1 || sm.BatchedStimuli != uint64(len(cases)-1) {
		t.Fatalf("scalar_runs=%d batched_runs=%d batched_stimuli=%d, want 1, 1, %d",
			sm.ScalarRuns, sm.BatchedRuns, sm.BatchedStimuli, len(cases)-1)
	}

	// Named-column path: drive the counter's reset explicitly.
	resp, body := postJSON(t, ts.URL+"/stimulus", stimulusRequest{
		Source: corpus.Counter(4, 9).Source(),
		Inputs: []string{"rst_n", "en"},
		Rows:   [][]uint64{{0, 0}, {0, 0}, {1, 1}, {1, 1}, {1, 1}, {1, 1}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("named inputs: status %d: %s", resp.StatusCode, body)
	}
	var got stimulusResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Pass {
		t.Fatalf("golden counter failed its own stimulus: %s", got.Log)
	}

	// Unknown columns are a client error, not a crash.
	if resp, body := postJSON(t, ts.URL+"/stimulus", stimulusRequest{
		Source: corpus.Counter(4, 9).Source(),
		Inputs: []string{"nonsense"},
		Rows:   [][]uint64{{0}},
	}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad input name: status %d (%s), want 422", resp.StatusCode, body)
	}
}

// TestServeStimulusLaneCap queues 19 stimuli behind a held run with an
// 8-lane cap: every queue that reaches the cap must run at once, so no
// batch holds more than 8 stimuli and all 20 are answered.
func TestServeStimulusLaneCap(t *testing.T) {
	const lanes, total = 8, 20
	ts, g := testServerBatcher(t, lanes)
	src := brokenEdgeDetect(t)
	rng := rand.New(rand.NewSource(5))
	var cases []stimulusCase
	for i := 0; i < total; i++ {
		rows := make([][]uint64, 6)
		for c := range rows {
			rows[c] = []uint64{rng.Uint64() & 1}
		}
		tc := scalarReference(t, stimulusRequest{Source: src, Rows: rows})
		tc.want.Batched = i > 0
		cases = append(cases, tc)
	}
	sendBehindHeldRuns(t, ts.URL, g, cases[:1], cases[1:])

	var sizes []int
	for _, runs := range g.batches() {
		for _, r := range runs {
			if r.size > lanes {
				t.Errorf("batch of %d stimuli exceeds the %d-lane cap", r.size, lanes)
			}
			sizes = append(sizes, r.size)
		}
	}
	slices.Sort(sizes)
	if want := []int{1, 3, 8, 8}; !slices.Equal(sizes, want) {
		t.Errorf("batch sizes = %v, want %v", sizes, want)
	}
	if sm := getMetrics(t, ts.URL).Server; sm.BatchedStimuli+sm.ScalarRuns != total {
		t.Fatalf("batched(%d) + scalar(%d) stimuli accounted, want %d", sm.BatchedStimuli, sm.ScalarRuns, total)
	}
}

// TestServeStimulusIdle spreads concurrent stimuli over many keys (depths
// and value domains), several per key: once every reply has arrived, the
// batcher must hold no per-key state, so its memory does not grow with the
// number of distinct keys ever seen.
func TestServeStimulusIdle(t *testing.T) {
	ts, srv := testServer(t, nil, serverConfig{BatchLanes: 8})
	src := brokenEdgeDetect(t)
	rng := rand.New(rand.NewSource(9))
	var cases []stimulusCase
	for depth := 1; depth <= 8; depth++ {
		for _, four := range []bool{false, true} {
			for k := 0; k < 3; k++ {
				rows := make([][]uint64, depth)
				for c := range rows {
					rows[c] = []uint64{rng.Uint64() & 1}
				}
				cases = append(cases, scalarReference(t, stimulusRequest{Source: src, Rows: rows, FourState: four}))
			}
		}
	}
	// Which requests share a batch depends on arrival timing; the verdict,
	// failed set and log must not.
	var wg sync.WaitGroup
	errs := make(chan error, len(cases))
	postAll(ts.URL, cases, true, &wg, errs)
	wg.Wait()
	drainErrors(t, errs)
	srv.batch.mu.Lock()
	left := len(srv.batch.queued)
	srv.batch.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d keys still held after every reply arrived, want 0", left)
	}
	sm := getMetrics(t, ts.URL).Server
	if total := sm.BatchedStimuli + sm.ScalarRuns; total != uint64(len(cases)) {
		t.Fatalf("batched(%d) + scalar(%d) = %d stimuli accounted, want %d", sm.BatchedStimuli, sm.ScalarRuns, total, len(cases))
	}
}

// TestServeStimulusMultiClock holds the first run of each key of the
// two-clock CDCCross design (golden and with a skipped synchronizer stage,
// in both value domains, naming both clock columns) until the other
// stimuli have queued. The lane checker cannot decide multi-clock batches,
// so each key must run one scalar stimulus and then its queue on the
// scalar engine, and every reply must equal an in-process scalar run,
// check and log of the same stimulus.
func TestServeStimulusMultiClock(t *testing.T) {
	ts, g := testServerBatcher(t, 8)
	golden := corpus.CDCCross().Source()
	buggy := strings.Replace(golden, "q <= meta;", "q <= d;", 1)
	if buggy == golden {
		t.Fatal("bug injection did not apply")
	}
	columns := []string{"clk_a", "clk_b", "rst_n", "d"}
	rng := rand.New(rand.NewSource(7))
	const perKey = 4
	var lead, rest []stimulusCase
	failing := 0
	for _, src := range []string{golden, buggy} {
		for _, four := range []bool{false, true} {
			for k := 0; k < perKey; k++ {
				phase := rng.Intn(4)
				rows := make([][]uint64, 24)
				for c := range rows {
					rows[c] = []uint64{uint64(c % 2), uint64((c + phase) / 2 % 2), boolBit(c >= 2), rng.Uint64() & 1}
				}
				tc := scalarReference(t, stimulusRequest{Source: src, Inputs: columns, Rows: rows, FourState: four})
				if !tc.want.Pass {
					failing++
				}
				if k == 0 {
					lead = append(lead, tc)
				} else {
					rest = append(rest, tc)
				}
			}
		}
	}
	if total := len(lead) + len(rest); failing == 0 || failing == total {
		t.Fatalf("%d of %d reference runs fail; want a mix of passing and failing stimuli", failing, total)
	}
	sendBehindHeldRuns(t, ts.URL, g, lead, rest)

	batches := g.batches()
	if len(batches) != len(lead) {
		t.Fatalf("%d keys ran, want %d", len(batches), len(lead))
	}
	for k, runs := range batches {
		if want := []batchRun{{1, false}, {perKey - 1, false}}; !reflect.DeepEqual(runs, want) {
			t.Errorf("%s mode %v: batches = %+v, want %+v", k.d.Module.Name, k.mode, runs, want)
		}
	}
	sm := getMetrics(t, ts.URL).Server
	if total := len(lead) + len(rest); sm.ScalarRuns != uint64(total) || sm.BatchedStimuli != 0 || sm.BatchedRuns != 0 {
		t.Fatalf("scalar_runs=%d batched_stimuli=%d batched_runs=%d, want every one of %d multi-clock stimuli scalar",
			sm.ScalarRuns, sm.BatchedStimuli, sm.BatchedRuns, total)
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func TestServeRateLimit(t *testing.T) {
	ts, _ := testServer(t, nil, serverConfig{Rate: 0.01, Burst: 1})
	req, _ := json.Marshal(checkRequest{
		Source:  corpus.Counter(4, 9).Source(),
		Options: checkOptions{Seed: 1, Depth: 8},
	})
	do := func() int {
		r, err := http.NewRequest("POST", ts.URL+"/check", bytes.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		r.Header.Set("X-Client", "greedy")
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := do(); code != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", code)
	}
	if code := do(); code != http.StatusTooManyRequests {
		t.Fatalf("second request inside the bucket window: status %d, want 429", code)
	}
	if sm := getMetrics(t, ts.URL).Server; sm.RejectedRate == 0 {
		t.Fatalf("rejected_rate = 0 after a 429: %+v", sm)
	}
}

// TestServeAdmissionQueue fills the bounded queue with a long-running
// check and requires overflow to be rejected immediately with 429 — and
// the slot to come back once the occupying client disconnects.
func TestServeAdmissionQueue(t *testing.T) {
	ts, srv := testServer(t, nil, serverConfig{Queue: 1})

	slow, _ := json.Marshal(checkRequest{
		Source: corpus.EdgeDetect().Source(),
		// 2^20 exhaustive sequences, the most the option caps allow:
		// seconds of work, far longer than this test needs it in flight.
		Options: checkOptions{Seed: 1, Depth: maxExhaustiveBits, MaxExhaustiveBits: maxExhaustiveBits, RandomRuns: -1},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan error, 1)
	go func() {
		r, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/check", bytes.NewReader(slow))
		if err != nil {
			started <- err
			return
		}
		resp, err := http.DefaultClient.Do(r)
		if err == nil {
			resp.Body.Close()
		}
		started <- nil
	}()

	// Wait until the slow check occupies the one queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for srv.svc.Metrics().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow check never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, body := postJSON(t, ts.URL+"/check", checkRequest{
		Source:  corpus.Counter(4, 9).Source(),
		Options: checkOptions{Seed: 1, Depth: 8},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d (%s), want 429", resp.StatusCode, body)
	}
	if sm := getMetrics(t, ts.URL).Server; sm.RejectedQueue == 0 {
		t.Fatalf("rejected_queue = 0 after a 429: %+v", sm)
	}

	// The client disconnecting must cancel the check and free the slot.
	cancel()
	<-started
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, _ := postJSON(t, ts.URL+"/check", checkRequest{
			Source:  corpus.Counter(4, 9).Source(),
			Options: checkOptions{Seed: 1, Depth: 8},
		})
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue slot never freed after client disconnect (last status %d)", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// oversized is a JSON request body whose source string alone exceeds
// maxBodyBytes.
func oversized(t *testing.T) []byte {
	t.Helper()
	buf, err := json.Marshal(stimulusRequest{
		Source: "module m(input clk);\n" + strings.Repeat("// padding\n", maxBodyBytes/11+1) + "endmodule\n",
		Rows:   [][]uint64{{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func postRaw(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(out)
}

func TestServeBodyLimitCheck(t *testing.T) {
	ts, _ := testServer(t, nil, serverConfig{})
	if code, body := postRaw(t, ts.URL+"/check", oversized(t)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /check: status %d (%s), want 413", code, body)
	}
}

func TestServeBodyLimitStimulus(t *testing.T) {
	ts, _ := testServer(t, nil, serverConfig{})
	if code, body := postRaw(t, ts.URL+"/stimulus", oversized(t)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /stimulus: status %d (%s), want 413", code, body)
	}
}

// TestServeStimulusDepthLimit sends /stimulus requests at the row cap,
// which runs, and one row past it, which is refused with 422 before the
// design is elaborated or simulated.
func TestServeStimulusDepthLimit(t *testing.T) {
	ts, _ := testServer(t, nil, serverConfig{})
	src := corpus.EdgeDetect().Source()
	for _, tc := range []struct {
		rows int
		want int
	}{{maxStimulusRows, http.StatusOK}, {maxStimulusRows + 1, http.StatusUnprocessableEntity}} {
		rows := make([][]uint64, tc.rows)
		for c := range rows {
			rows[c] = []uint64{uint64(c) & 1}
		}
		resp, body := postJSON(t, ts.URL+"/stimulus", stimulusRequest{Source: src, Rows: rows})
		if resp.StatusCode != tc.want {
			t.Fatalf("%d rows: status %d (%s), want %d", tc.rows, resp.StatusCode, body, tc.want)
		}
		if tc.want == http.StatusOK {
			var sr stimulusResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("(%d cycles)", tc.rows); !sr.Pass || !strings.Contains(sr.Log, want) {
				t.Fatalf("%d rows: pass=%v log %q, want a pass over %s", tc.rows, sr.Pass, sr.Log, want)
			}
		}
	}
}

// TestServeCheckOptionLimits sends /check requests with each capped
// option at its cap, which runs, and one past it, which is refused with
// 422 before anything is compiled. The benchmark's serve-check options
// (depth up to 40, 10 random runs, 8 exhaustive bits) must pass.
func TestServeCheckOptionLimits(t *testing.T) {
	ts, srv := testServer(t, nil, serverConfig{})
	src := corpus.EdgeDetect().Source()
	for _, tc := range []struct {
		name string
		opts checkOptions
		want int
	}{
		{"benchmark", checkOptions{Seed: 7, Depth: 40, RandomRuns: 10, MaxExhaustiveBits: 8, Lanes: 64}, http.StatusOK},
		{"depth", checkOptions{Depth: maxCheckDepth, RandomRuns: 1}, http.StatusOK},
		{"depth+1", checkOptions{Depth: maxCheckDepth + 1, RandomRuns: 1}, http.StatusUnprocessableEntity},
		{"random_runs", checkOptions{Depth: 4, RandomRuns: maxRandomRuns}, http.StatusOK},
		{"random_runs+1", checkOptions{Depth: 4, RandomRuns: maxRandomRuns + 1}, http.StatusUnprocessableEntity},
		{"no_random", checkOptions{Depth: 4, RandomRuns: -1}, http.StatusOK},
		{"max_exhaustive_bits", checkOptions{Depth: 8, MaxExhaustiveBits: maxExhaustiveBits}, http.StatusOK},
		{"max_exhaustive_bits+1", checkOptions{Depth: 8, MaxExhaustiveBits: maxExhaustiveBits + 1}, http.StatusUnprocessableEntity},
		{"max_const_bits", checkOptions{Depth: 8, MaxConstBits: maxConstBits}, http.StatusOK},
		{"max_const_bits+1", checkOptions{Depth: 8, MaxConstBits: maxConstBits + 1}, http.StatusUnprocessableEntity},
	} {
		misses := srv.svc.Metrics().Misses
		resp, body := postJSON(t, ts.URL+"/check", checkRequest{Source: src, Options: tc.opts})
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, body, tc.want)
		}
		if tc.want != http.StatusOK {
			if got := srv.svc.Metrics().Misses; got != misses {
				t.Errorf("%s: a refused request started %d checks", tc.name, got-misses)
			}
			continue
		}
		var got checkResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Status != verify.StatusPass {
			t.Errorf("%s: status %v, want pass: %s", tc.name, got.Status, body)
		}
	}
}

// TestRateLimiterEvictsRefilledBuckets rotates through 10k client IDs and
// requires the bucket map to stay bounded once old buckets have refilled,
// while a bucket that has not refilled survives a sweep with its debt.
func TestRateLimiterEvictsRefilledBuckets(t *testing.T) {
	clock := time.Unix(0, 0)
	newLimiter := func() *rateLimiter {
		rl := newRateLimiter(50, 100) // the -rate and -burst defaults
		rl.now = func() time.Time { return clock }
		return rl
	}

	// One new client per millisecond: a bucket refills its one spent
	// token 20 ms later, so almost every bucket is evictable at a sweep.
	rl := newLimiter()
	for i := 0; i < 10000; i++ {
		clock = clock.Add(time.Millisecond)
		if !rl.allow(fmt.Sprintf("client-%d", i)) {
			t.Fatalf("client %d refused its first request", i)
		}
		if n := len(rl.buckets); n > minSweep {
			t.Fatalf("after %d clients the map holds %d buckets, want at most %d", i+1, n, minSweep)
		}
	}

	// All at one instant nothing refills: a drained client stays limited
	// across the sweep the flood triggers, and no bucket is lost.
	rl = newLimiter()
	for i := 0; i < 100; i++ {
		if !rl.allow("greedy") {
			t.Fatalf("greedy refused within its burst at request %d", i)
		}
	}
	for i := 0; i < minSweep+1; i++ {
		rl.allow(fmt.Sprintf("client-%d", i))
	}
	if rl.allow("greedy") {
		t.Fatal("a drained bucket was reset by the sweep")
	}
	if n := len(rl.buckets); n != minSweep+2 {
		t.Fatalf("map holds %d buckets, want %d (none had refilled)", n, minSweep+2)
	}
}

// TestServeBodyLimitLargestGolden sends the largest catalog source to both
// endpoints: the body cap must leave every real design well inside it.
func TestServeBodyLimitLargestGolden(t *testing.T) {
	ts, _ := testServer(t, nil, serverConfig{})
	var largest *corpus.Blueprint
	for _, bp := range corpus.Catalog() {
		if largest == nil || len(bp.Source()) > len(largest.Source()) {
			largest = bp
		}
	}
	resp, body := postJSON(t, ts.URL+"/check", checkRequest{
		Source:  largest.Source(),
		Options: checkOptions{CompileOnly: true},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/check of %s (%d bytes): status %d: %s", largest.Name(), len(largest.Source()), resp.StatusCode, body)
	}
	d, diags, err := compile.Compile(largest.Source())
	if err != nil || compile.HasErrors(diags) {
		t.Fatalf("%s does not compile: %v", largest.Name(), err)
	}
	rows := make([][]uint64, 8)
	for c := range rows {
		rows[c] = make([]uint64, len(d.Inputs(true)))
	}
	resp, body = postJSON(t, ts.URL+"/stimulus", stimulusRequest{Source: largest.Source(), Rows: rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stimulus of %s: status %d: %s", largest.Name(), resp.StatusCode, body)
	}
}

// BenchmarkStimulusHandler drives POST /stimulus through the server's
// routes in process, one request at a time, over the five designs of the
// benchmark's serve-stimulus workload (CDCCross naming both clock columns)
// in both value domains. Every design is compiled and cached before timing.
func BenchmarkStimulusHandler(b *testing.B) {
	h := newServer(verify.New(2), serverConfig{}).routes()
	rng := rand.New(rand.NewSource(1))
	var bodies [][]byte
	for _, bp := range []*corpus.Blueprint{corpus.Accu(8, 2), corpus.FIFOFlags(4, 3),
		corpus.Handshake(3), corpus.SeqMultiplier(4), corpus.CDCCross()} {
		d, _, err := compile.Compile(bp.Source())
		if err != nil || d == nil {
			b.Fatalf("%s does not compile: %v", bp.Name(), err)
		}
		var names []string
		for _, in := range d.Inputs(false) {
			if d.MultiClock() || in.Name != d.Domains[0].Signal {
				names = append(names, in.Name)
			}
		}
		for _, four := range []bool{false, true} {
			rows := make([][]uint64, 24)
			for c := range rows {
				rows[c] = make([]uint64, len(names))
				for i, name := range names {
					switch {
					case d.MultiClock() && name == d.Domains[0].Signal:
						rows[c][i] = uint64(c % 2)
					case d.MultiClock() && strings.HasPrefix(name, "clk"):
						rows[c][i] = uint64(c / 2 % 2)
					case name == d.Reset().Name:
						rows[c][i] = boolBit((c >= 2) == d.Reset().ActiveLow)
					default:
						rows[c][i] = rng.Uint64() & d.Signals[name].Mask()
					}
				}
			}
			body, err := json.Marshal(stimulusRequest{Source: bp.Source(), Inputs: names, Rows: rows, FourState: four})
			if err != nil {
				b.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	serve := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/stimulus", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for _, body := range bodies {
		serve(body)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		serve(bodies[i%len(bodies)])
	}
}
