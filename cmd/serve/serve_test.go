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
func testServer(t *testing.T, store verify.Store, cfg serverConfig) (*httptest.Server, *verify.Service) {
	t.Helper()
	svc := verify.New(4)
	if store != nil {
		svc.SetStore(store)
	}
	srv := newServer(svc, cfg)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts, svc
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

// TestServeStimulusBatching fires compatible stimulus checks concurrently
// and requires the lane path to carry them: the packed run must agree with
// scalar semantics on both passing and failing stimuli.
func TestServeStimulusBatching(t *testing.T) {
	ts, _ := testServer(t, nil, serverConfig{BatchWindow: 100 * time.Millisecond, BatchLanes: 8})

	// A broken edge detector: pulse stays high as long as sig is high, so
	// any stimulus holding sig for two sampled cycles fails p_pulse.
	src := strings.Replace(corpus.EdgeDetect().Source(),
		"assign pulse = sig && !sig_d;", "assign pulse = sig;", 1)
	if src == corpus.EdgeDetect().Source() {
		t.Fatal("bug injection did not apply")
	}

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
	var wg sync.WaitGroup
	errs := make(chan error, len(cases))
	for i, tc := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/stimulus", stimulusRequest{
				Source: src, Rows: tc.rows,
			})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("case %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			var got stimulusResponse
			if err := json.Unmarshal(body, &got); err != nil {
				errs <- err
				return
			}
			if got.Pass != tc.pass {
				errs <- fmt.Errorf("case %d: pass = %v, want %v (%s)", i, got.Pass, tc.pass, got.Log)
				return
			}
			if !tc.pass && len(got.FailedAsserts) == 0 {
				errs <- fmt.Errorf("case %d: failing stimulus named no assertions", i)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	sm := getMetrics(t, ts.URL).Server
	if total := sm.BatchedStimuli + sm.ScalarRuns; total != uint64(len(cases)) {
		t.Fatalf("batched(%d) + scalar(%d) = %d stimuli accounted, want %d",
			sm.BatchedStimuli, sm.ScalarRuns, total, len(cases))
	}
	if sm.BatchedRuns == 0 {
		t.Fatalf("no lane-packed runs despite %d concurrent compatible stimuli: %+v", len(cases), sm)
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

// TestServeStimulusMultiClock fires concurrent compatible /stimulus
// requests at the two-clock CDCCross design (golden and with a skipped
// synchronizer stage), naming both clock columns, in both value domains.
// The lane checker cannot decide multi-clock batches, so every stimulus
// must be answered by the scalar engine — and every reply must equal an
// in-process scalar run, check and log of the same stimulus.
func TestServeStimulusMultiClock(t *testing.T) {
	ts, _ := testServer(t, nil, serverConfig{BatchWindow: 100 * time.Millisecond, BatchLanes: 8})
	golden := corpus.CDCCross().Source()
	buggy := strings.Replace(golden, "q <= meta;", "q <= d;", 1)
	if buggy == golden {
		t.Fatal("bug injection did not apply")
	}
	columns := []string{"clk_a", "clk_b", "rst_n", "d"}
	rng := rand.New(rand.NewSource(7))
	type reqCase struct {
		req  stimulusRequest
		want stimulusResponse
	}
	var cases []reqCase
	for _, src := range []string{golden, buggy} {
		d, diags, err := compile.Compile(src)
		if err != nil || compile.HasErrors(diags) {
			t.Fatalf("fixture does not compile: %v %s", err, compile.FormatDiags(diags))
		}
		inputs := make([]*compile.Signal, len(columns))
		for i, name := range columns {
			inputs[i] = d.Signals[name]
		}
		for _, mode := range []sim.Mode{sim.TwoState, sim.FourState} {
			for k := 0; k < 4; k++ {
				phase := rng.Intn(4)
				rows := make([][]uint64, 24)
				for c := range rows {
					rows[c] = []uint64{uint64(c % 2), uint64((c + phase) / 2 % 2), boolBit(c >= 2), rng.Uint64() & 1}
				}
				tr, err := sim.RunVecCtx(context.Background(), d, sim.VecStimulus{Inputs: inputs, Rows: rows}, mode)
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
				cases = append(cases, reqCase{
					req:  stimulusRequest{Source: src, Inputs: columns, Rows: rows, FourState: mode == sim.FourState},
					want: want,
				})
			}
		}
	}
	failing := 0
	for _, tc := range cases {
		if !tc.want.Pass {
			failing++
		}
	}
	if failing == 0 || failing == len(cases) {
		t.Fatalf("%d of %d reference runs fail; want a mix of passing and failing stimuli", failing, len(cases))
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(cases))
	for i, tc := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/stimulus", tc.req)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("case %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			var got stimulusResponse
			if err := json.Unmarshal(body, &got); err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(got, tc.want) {
				errs <- fmt.Errorf("case %d: reply differs from the in-process scalar check:\n got %+v\nwant %+v", i, got, tc.want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	sm := getMetrics(t, ts.URL).Server
	if sm.ScalarRuns != uint64(len(cases)) || sm.BatchedStimuli != 0 || sm.BatchedRuns != 0 {
		t.Fatalf("scalar_runs=%d batched_stimuli=%d batched_runs=%d, want every one of %d multi-clock stimuli scalar",
			sm.ScalarRuns, sm.BatchedStimuli, sm.BatchedRuns, len(cases))
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
	ts, svc := testServer(t, nil, serverConfig{Queue: 1})

	slow, _ := json.Marshal(checkRequest{
		Source: corpus.EdgeDetect().Source(),
		// 2^24 exhaustive sequences: effectively unbounded for this test.
		Options: checkOptions{Seed: 1, Depth: 24, MaxExhaustiveBits: 24, RandomRuns: -1},
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
	for svc.Metrics().InFlight == 0 {
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
