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
	"repro/internal/formal"
	"repro/internal/sim"
	"repro/internal/sva"
	"repro/internal/verify"
)

// testServer boots the HTTP front end over a fresh service (plus optional
// store) the way main() wires it, behind an httptest listener.
func testServer(t *testing.T, store *verify.DiskStore, cfg serverConfig) (*httptest.Server, *server) {
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
		Options: verify.Options{Seed: 1, Depth: 12},
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
		Options: verify.Options{Seed: 1, Depth: 12},
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

// TestServeCheckClocklessAssertion: a candidate inline assertion without a
// clocking event is answered 200 with a compile-error status; it once
// panicked in the cache key's printer and the connection dropped unanswered.
func TestServeCheckClocklessAssertion(t *testing.T) {
	ts, _ := testServer(t, nil, serverConfig{})
	resp, body := postJSON(t, ts.URL+"/check", checkRequest{
		Source:     corpus.EdgeDetect().Source(),
		Assertions: "assert property (pulse == 1);\n",
		Options:    verify.Options{Seed: 1, Depth: 12},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got checkResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != verify.StatusCompileError {
		t.Fatalf("clockless candidate = status %v, want compile-error: %s", got.Status, body)
	}
}

// paramAssignSrc assigns to a parameter, which the planner cannot lower.
const paramAssignSrc = `module pm (
    input clk,
    input a,
    output reg q
);
    parameter MAX = 3;
    always @(posedge clk) if (a) MAX <= 1; else q <= a;
    p_q: assert property (@(posedge clk) q == 0);
endmodule
`

// TestServeParameterAssignmentRejected: both endpoints answer a design that
// assigns to a parameter as one that does not compile, with the positioned
// diagnostic.
func TestServeParameterAssignmentRejected(t *testing.T) {
	ts, _ := testServer(t, nil, serverConfig{})
	const diag = "7:34: error: cannot assign to parameter MAX"
	resp, body := postJSON(t, ts.URL+"/check", checkRequest{Source: paramAssignSrc, Options: verify.Options{Seed: 1, Depth: 8}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/check: status %d: %s", resp.StatusCode, body)
	}
	var got checkResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte(`"status":"compile-error"`)) || !strings.Contains(got.Log, diag) {
		t.Fatalf("/check: want a compile-error status and %q in the log: %s", diag, body)
	}
	resp, body = postJSON(t, ts.URL+"/stimulus", stimulusRequest{Source: paramAssignSrc, Rows: [][]uint64{{1}, {0}}})
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.HasPrefix(string(body), "design does not compile:\n") || !strings.Contains(string(body), diag) {
		t.Fatalf("/stimulus: status %d (%s), want 422 design does not compile with %q", resp.StatusCode, body, diag)
	}
}

// TestServeCoalescing sends the same expensive check from many concurrent
// clients and requires exactly one computation: everyone else either
// coalesces onto the in-flight entry or hits the completed one.
func TestServeCoalescing(t *testing.T) {
	ts, _ := testServer(t, nil, serverConfig{})
	req := checkRequest{
		Source:  corpus.ALU(8, 4).Source(),
		Options: verify.Options{Seed: 3, Depth: 12},
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
// check from disk — zero computations, byte-identical records, with and
// without record_only — in both value domains, matching an in-process
// service bit for bit.
func TestServePersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	requests := []checkRequest{
		{Source: corpus.Counter(4, 9).Source(), RecordOnly: true,
			Options: verify.Options{Seed: 1, Depth: 12}},
		{Source: corpus.Counter(4, 9).Source(), RecordOnly: true,
			Options: verify.Options{Seed: 1, Depth: 12, FourState: true}},
		{Source: corpus.EdgeDetect().Source(), RecordOnly: true,
			Assertions: "property p_never; @(posedge clk) pulse == 1; endproperty\n" +
				"p_never_assertion: assert property (p_never);\n",
			Options: verify.Options{Seed: 1, Depth: 12}},
		{Source: corpus.EdgeDetect().Source(), RecordOnly: true,
			Assertions: "property p_never; @(posedge clk) pulse == 1; endproperty\n" +
				"p_never_assertion: assert property (p_never);\n",
			Options: verify.Options{Seed: 1, Depth: 12, FourState: true}},
		{Source: "module broken(input clk, output reg q);\n" +
			"  always @(posedge clk) q <= undeclared;\nendmodule\n",
			RecordOnly: true, Options: verify.Options{Seed: 1, Depth: 12}},
	}

	// Run 1: compute everything, persisting through the disk store.
	openStore := func() *verify.DiskStore {
		ds, err := verify.OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return ds
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
	if err := store1.Close(); err != nil { // sync and close, like main() on shutdown
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
		rec, err := ref.CheckRecord(context.Background(), req.Source, items, req.Options)
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

	// Run 2: a fresh process image (new service, new verdict cache) over
	// the same directory. Every answer must come from disk, the full
	// replies (without record_only) as well, with the same record bytes.
	store2 := openStore()
	t.Cleanup(func() { store2.Close() })
	ts2, _ := testServer(t, store2, serverConfig{})
	for i, req := range requests {
		resp, body := postJSON(t, ts2.URL+"/check", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run 2 request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if !bytes.Equal(body, firstRun[i]) {
			t.Fatalf("run 2 request %d not byte-identical:\n run1 %s\n run2 %s", i, firstRun[i], body)
		}

		req.RecordOnly = false
		resp, body = postJSON(t, ts2.URL+"/check", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run 2 full request %d: status %d: %s", i, resp.StatusCode, body)
		}
		var full checkResponse
		if err := json.Unmarshal(body, &full); err != nil {
			t.Fatal(err)
		}
		rec, err := json.Marshal(checkResponse{Record: full.Record})
		if err != nil {
			t.Fatal(err)
		}
		if !full.Cached || !bytes.Equal(rec, bytes.TrimSpace(firstRun[i])) {
			t.Fatalf("run 2 full request %d: cached=%v record %s, want cached and %s", i, full.Cached, rec, firstRun[i])
		}
	}
	m := getMetrics(t, ts2.URL).Verify
	if m.Misses != 0 {
		t.Fatalf("run 2 misses = %d, want 0 (every answer from the store)", m.Misses)
	}
	if m.DiskHits != uint64(2*len(requests)) {
		t.Fatalf("run 2 disk_hits = %d, want %d (one disk read per request): %+v", m.DiskHits, 2*len(requests), m)
	}
}

// stimulusCase is one /stimulus request and the reply the server owes it.
type stimulusCase struct {
	req  stimulusRequest
	want stimulusResponse
}

// scalarReference pairs a request with its in-process scalar run, check and
// log.
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
		if !slices.Contains(want.FailedAsserts, f.Assert.Name) {
			want.FailedAsserts = append(want.FailedAsserts, f.Assert.Name)
		}
	}
	return stimulusCase{req: req, want: want}
}

// postStimulus sends one case and compares the reply with its reference.
func postStimulus(url string, tc stimulusCase) error {
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
	if !reflect.DeepEqual(got, tc.want) {
		return fmt.Errorf("reply differs from the in-process scalar check:\n got %+v\nwant %+v", got, tc.want)
	}
	return nil
}

// postAll sends every case concurrently, reporting failures on errs.
func postAll(url string, cases []stimulusCase, wg *sync.WaitGroup, errs chan<- error) {
	for i, tc := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := postStimulus(url, tc); err != nil {
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

// stimulusGroup is a set of /stimulus requests posted concurrently. Every
// reply must equal the in-process scalar run, check and log of its stimulus
// (scalarReference). A mixed group must hold both passing and failing
// references, so failure logs are compared too; every reference of any
// other group must pass. A refused group is answered 422 and has no
// reference.
type stimulusGroup struct {
	name    string
	reqs    []stimulusRequest
	mixed   bool
	refused bool
}

// postGroups runs each group as a subtest against one server.
func postGroups(t *testing.T, groups []stimulusGroup) {
	t.Helper()
	ts, _ := testServer(t, nil, serverConfig{})
	for _, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			if g.refused {
				for _, req := range g.reqs {
					if resp, body := postJSON(t, ts.URL+"/stimulus", req); resp.StatusCode != http.StatusUnprocessableEntity {
						t.Fatalf("status %d (%s), want 422", resp.StatusCode, body)
					}
				}
				return
			}
			cases := make([]stimulusCase, len(g.reqs))
			failing := 0
			for i, req := range g.reqs {
				cases[i] = scalarReference(t, req)
				if !cases[i].want.Pass {
					failing++
				}
			}
			if g.mixed && (failing == 0 || failing == len(cases)) {
				t.Fatalf("%d of %d reference runs fail; want a mix of passing and failing stimuli", failing, len(cases))
			}
			if !g.mixed && failing != 0 {
				t.Fatalf("%d of %d reference runs fail; want every one to pass", failing, len(cases))
			}
			var wg sync.WaitGroup
			errs := make(chan error, len(cases))
			postAll(ts.URL, cases, &wg, errs)
			wg.Wait()
			drainErrors(t, errs)
		})
	}
}

// TestServeStimulusBatching posts concurrent requests of mixed outcome and
// shape: the broken EdgeDetect over stimuli that never rise, rise afresh on
// every high (the buggy pulse matches $rose) or hold sig high; a counter
// whose columns are named explicitly; and an unknown column, which is a
// client error, not a crash.
func TestServeStimulusBatching(t *testing.T) {
	broken := brokenEdgeDetect(t)
	var edge []stimulusRequest
	for _, sig := range [][]uint64{
		{0, 0, 0, 0, 0, 0}, {0, 1, 0, 1, 0, 1}, {0, 1, 1, 0, 0, 1}, {1, 1, 1, 1, 1, 1},
		{0, 0, 1, 1, 0, 0}, {0, 1, 0, 0, 1, 1}, {0, 0, 0, 1, 1, 1}, {0, 1, 0, 1, 1, 0},
	} {
		rows := make([][]uint64, len(sig))
		for c, v := range sig {
			rows[c] = []uint64{v}
		}
		edge = append(edge, stimulusRequest{Source: broken, Rows: rows})
	}
	named := []stimulusRequest{{
		Source: corpus.Counter(4, 9).Source(),
		Inputs: []string{"rst_n", "en"},
		Rows:   [][]uint64{{0, 0}, {0, 0}, {1, 1}, {1, 1}, {1, 1}, {1, 1}},
	}}
	unknown := []stimulusRequest{{Source: corpus.Counter(4, 9).Source(), Inputs: []string{"nonsense"}, Rows: [][]uint64{{0}}}}
	postGroups(t, []stimulusGroup{
		{name: "edge-detect", reqs: edge, mixed: true},
		{name: "named-columns", reqs: named},
		{name: "unknown-column", reqs: unknown, refused: true},
	})
}

// TestServeStimulusIdle posts three stimuli of each depth from 1 to 8 in
// each value domain, so short stimuli and stimuli that end early are
// answered alongside long ones.
func TestServeStimulusIdle(t *testing.T) {
	broken := brokenEdgeDetect(t)
	rng := rand.New(rand.NewSource(9))
	var depths []stimulusRequest
	for depth := 1; depth <= 8; depth++ {
		for _, four := range []bool{false, true} {
			for range 3 {
				rows := make([][]uint64, depth)
				for c := range rows {
					rows[c] = []uint64{rng.Uint64() & 1}
				}
				depths = append(depths, stimulusRequest{Source: broken, Rows: rows, FourState: four})
			}
		}
	}
	postGroups(t, []stimulusGroup{{name: "depths", reqs: depths, mixed: true}})
}

// TestServeStimulusMultiClock posts the two-clock CDCCross, golden and with
// a skipped synchronizer stage, in both value domains, naming both clock
// columns.
func TestServeStimulusMultiClock(t *testing.T) {
	golden := corpus.CDCCross().Source()
	buggy := strings.Replace(golden, "q <= meta;", "q <= d;", 1)
	if buggy == golden {
		t.Fatal("bug injection did not apply")
	}
	rng := rand.New(rand.NewSource(9))
	var cdc []stimulusRequest
	for _, src := range []string{golden, buggy} {
		for _, four := range []bool{false, true} {
			for range 4 {
				phase := rng.Intn(4)
				rows := make([][]uint64, 24)
				for c := range rows {
					rows[c] = []uint64{uint64(c % 2), uint64((c + phase) / 2 % 2), boolBit(c >= 2), rng.Uint64() & 1}
				}
				cdc = append(cdc, stimulusRequest{Source: src, Inputs: []string{"clk_a", "clk_b", "rst_n", "d"}, Rows: rows, FourState: four})
			}
		}
	}
	postGroups(t, []stimulusGroup{{name: "cdc-cross", reqs: cdc, mixed: true}})
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
		Options: verify.Options{Seed: 1, Depth: 8},
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
		Options: verify.Options{Seed: 1, Depth: maxExhaustiveBits, MaxExhaustiveBits: maxExhaustiveBits, RandomRuns: -1},
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
		Options: verify.Options{Seed: 1, Depth: 8},
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
			Options: verify.Options{Seed: 1, Depth: 8},
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

// TestServeTrailingBody: /check and /stimulus decode exactly one JSON
// value; a body with anything but whitespace after it is refused with 400,
// and trailing whitespace is accepted.
func TestServeTrailingBody(t *testing.T) {
	ts, _ := testServer(t, nil, serverConfig{})
	src := corpus.EdgeDetect().Source()
	for _, tc := range []struct {
		path string
		req  any
	}{
		{"/check", checkRequest{Source: src}},
		{"/stimulus", stimulusRequest{Source: src, Rows: [][]uint64{{0}, {1}}}},
	} {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		for _, trail := range []struct {
			text string
			want int
		}{
			{" \n\t", http.StatusOK},
			{" trailing junk", http.StatusBadRequest},
			{`{"source":"x"}`, http.StatusBadRequest},
			{"}", http.StatusBadRequest},
			{" 5", http.StatusBadRequest},
		} {
			if code, reply := postRaw(t, ts.URL+tc.path, append(slices.Clip(body), trail.text...)); code != trail.want {
				t.Errorf("%s with %q after the body: status %d (%s), want %d", tc.path, trail.text, code, reply, trail.want)
			}
		}
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

// TestServeStimulusDuplicateColumn: each column must name a distinct
// input, so a request cannot grow its column count past the design's
// inputs by repeating one. A repeated name is refused with 422.
func TestServeStimulusDuplicateColumn(t *testing.T) {
	ts, _ := testServer(t, nil, serverConfig{})
	src := corpus.EdgeDetect().Source()
	for _, tc := range []struct {
		inputs []string
		want   int
	}{
		{[]string{"clk", "sig"}, http.StatusOK},
		{[]string{"sig", "sig"}, http.StatusUnprocessableEntity},
		{[]string{"clk", "sig", "clk"}, http.StatusUnprocessableEntity},
	} {
		rows := make([][]uint64, 4)
		for c := range rows {
			rows[c] = make([]uint64, len(tc.inputs))
		}
		resp, body := postJSON(t, ts.URL+"/stimulus", stimulusRequest{Source: src, Inputs: tc.inputs, Rows: rows})
		if resp.StatusCode != tc.want {
			t.Errorf("inputs %v: status %d (%s), want %d", tc.inputs, resp.StatusCode, body, tc.want)
		}
	}
}

// TestServeCheckDeadline: a /check that outlives the server's deadline is
// cancelled and answered 503, and its worker slot comes back.
func TestServeCheckDeadline(t *testing.T) {
	ts, srv := testServer(t, nil, serverConfig{})
	srv.deadline = 50 * time.Millisecond
	// 2^20 exhaustive sequences: seconds of work, far past the deadline.
	slow := checkRequest{
		Source:  corpus.EdgeDetect().Source(),
		Options: verify.Options{Seed: 1, Depth: maxExhaustiveBits, MaxExhaustiveBits: maxExhaustiveBits, RandomRuns: -1},
	}
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/check", slow)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("slow check: status %d (%s), want 503", resp.StatusCode, body)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("slow check answered after %v, want soon after the 50ms deadline", took)
	}
	slow.RecordOnly = true
	if resp, body := postJSON(t, ts.URL+"/check", slow); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("slow record-only check: status %d (%s), want 503", resp.StatusCode, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.svc.Metrics().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatal("cancelled checks still hold worker slots")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// With its slots back, the server answers the next check.
	srv.deadline = checkDeadline
	resp, body = postJSON(t, ts.URL+"/check", checkRequest{
		Source:  corpus.Counter(4, 9).Source(),
		Options: verify.Options{Seed: 1, Depth: 8},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quick check: status %d (%s), want 200", resp.StatusCode, body)
	}
}

// TestServeStimulusDeadline: a /stimulus whose deadline has passed is
// cancelled and answered 503, before its design is cached and after, when
// only the run is left to cancel; with the deadline restored the same
// request is answered 200.
func TestServeStimulusDeadline(t *testing.T) {
	ts, srv := testServer(t, nil, serverConfig{})
	req := stimulusRequest{Source: corpus.EdgeDetect().Source(), Rows: [][]uint64{{0}, {1}, {1}, {0}}}
	for _, step := range []struct {
		what     string
		deadline time.Duration
		want     int
	}{
		{"uncached design past its deadline", time.Nanosecond, http.StatusServiceUnavailable},
		{"uncached design", checkDeadline, http.StatusOK},
		{"cached design past its deadline", time.Nanosecond, http.StatusServiceUnavailable},
		{"cached design", checkDeadline, http.StatusOK},
	} {
		srv.deadline = step.deadline
		if resp, body := postJSON(t, ts.URL+"/stimulus", req); resp.StatusCode != step.want {
			t.Fatalf("%s: status %d (%s), want %d", step.what, resp.StatusCode, body, step.want)
		}
	}
}

// TestServeCheckLanesIgnored decodes /check options. Each row sends the
// plain request, then the plain options with one JSON name set. A
// formal.Options name starts a check of its own (one more miss) whose
// record bytes are those of the Go value checked directly, and the table
// names every formal.Options JSON name. An ignored name ("lanes" of the
// removed lane mode, "compile_only" of the removed compile-only option) is
// answered from the cache (one hit) with the plain request's record bytes.
func TestServeCheckLanesIgnored(t *testing.T) {
	src := corpus.EdgeDetect().Source()
	plain := verify.Options{Seed: 7, Depth: 40, RandomRuns: 10, MaxExhaustiveBits: 8}
	with := func(f func(*verify.Options)) verify.Options { o := plain; f(&o); return o }
	covered := map[string]bool{}
	for _, tc := range []struct {
		name  string
		value any
		want  verify.Options // the Go value the name must decode to
	}{
		{"seed", 3, with(func(o *verify.Options) { o.Seed = 3 })},
		{"depth", 12, with(func(o *verify.Options) { o.Depth = 12 })},
		{"random_runs", -1, with(func(o *verify.Options) { o.RandomRuns = formal.NoRandom })},
		{"max_exhaustive_bits", 4, with(func(o *verify.Options) { o.MaxExhaustiveBits = 4 })},
		{"max_const_bits", 3, with(func(o *verify.Options) { o.MaxConstBits = 3 })},
		{"four_state", true, with(func(o *verify.Options) { o.FourState = true })},
		{"lanes", 64, plain},
		{"compile_only", true, plain},
	} {
		covered[tc.name] = true
		ts, srv := testServer(t, nil, serverConfig{})
		opts := map[string]any{"seed": 7, "depth": 40, "random_runs": 10, "max_exhaustive_bits": 8}
		var replies [][]byte
		for _, set := range []bool{false, true} {
			if set {
				opts[tc.name] = tc.value
			}
			resp, body := postJSON(t, ts.URL+"/check", map[string]any{"source": src, "record_only": true, "options": opts})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d (%s), want 200", tc.name, resp.StatusCode, body)
			}
			replies = append(replies, body)
		}
		ignored := tc.want == plain
		wantMisses, wantHits := uint64(2), uint64(0)
		if ignored {
			wantMisses, wantHits = 1, 1
		}
		if m := srv.svc.Metrics(); m.Misses != wantMisses || m.Hits != wantHits {
			t.Errorf("%s: the pair cost %d misses and %d hits, want %d and %d", tc.name, m.Misses, m.Hits, wantMisses, wantHits)
		}
		v, err := verify.New(1).Run(context.Background(), src, nil, tc.want)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(checkResponse{Record: v.Record})
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(replies[1], want) || (ignored && !bytes.Equal(replies[0], want)) {
			t.Errorf("%s: record\n%s\nwant the record of %+v\n%s", tc.name, replies[1], tc.want, want)
		}
	}
	for _, f := range reflect.VisibleFields(reflect.TypeFor[formal.Options]()) {
		if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name != "-" && !covered[name] {
			t.Errorf("formal.Options field %s (JSON name %q) has no row", f.Name, name)
		}
	}
}

// TestServeCheckOptionLimits sends /check requests with each capped
// option at its cap, which runs, and one past it, which is refused with
// 422 before anything is compiled. The benchmark's serve-check options
// (depth up to 40, 10 random runs, 8 exhaustive bits, and the ignored
// lanes 64) must pass.
func TestServeCheckOptionLimits(t *testing.T) {
	ts, srv := testServer(t, nil, serverConfig{})
	src := corpus.EdgeDetect().Source()
	for _, tc := range []struct {
		name string
		opts any
		want int
	}{
		{"benchmark", map[string]any{"seed": 7, "depth": 40, "random_runs": 10, "max_exhaustive_bits": 8, "lanes": 64}, http.StatusOK},
		{"depth", verify.Options{Depth: maxCheckDepth, RandomRuns: 1}, http.StatusOK},
		{"depth+1", verify.Options{Depth: maxCheckDepth + 1, RandomRuns: 1}, http.StatusUnprocessableEntity},
		{"random_runs", verify.Options{Depth: 4, RandomRuns: maxRandomRuns}, http.StatusOK},
		{"random_runs+1", verify.Options{Depth: 4, RandomRuns: maxRandomRuns + 1}, http.StatusUnprocessableEntity},
		{"no_random", verify.Options{Depth: 4, RandomRuns: -1}, http.StatusOK},
		{"max_exhaustive_bits", verify.Options{Depth: 8, MaxExhaustiveBits: maxExhaustiveBits}, http.StatusOK},
		{"max_exhaustive_bits+1", verify.Options{Depth: 8, MaxExhaustiveBits: maxExhaustiveBits + 1}, http.StatusUnprocessableEntity},
		{"max_const_bits", verify.Options{Depth: 8, MaxConstBits: maxConstBits}, http.StatusOK},
		{"max_const_bits+1", verify.Options{Depth: 8, MaxConstBits: maxConstBits + 1}, http.StatusUnprocessableEntity},
	} {
		misses := srv.svc.Metrics().Misses
		resp, body := postJSON(t, ts.URL+"/check", map[string]any{"source": src, "options": tc.opts})
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
	// The smallest bound and budgets keep the check itself cheap.
	resp, body := postJSON(t, ts.URL+"/check", checkRequest{
		Source:  largest.Source(),
		Options: verify.Options{Depth: 1, RandomRuns: formal.NoRandom, MaxExhaustiveBits: 1, MaxConstBits: 1},
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
