// Command serve exposes the verification service (internal/verify) as a
// long-running HTTP/JSON server, so many clients share one verdict cache,
// one worker pool and, with -store, one persistent store. It answers three
// endpoints:
//
//	POST /check    - compile + bounded-model-check a design. The request
//	                 carries the source, optional candidate assertions and
//	                 check options. Every check is answered from the
//	                 verdict cache, then the -store directory, and is
//	                 computed only when neither holds it; "record_only"
//	                 leaves the "cached" field out of the reply. The
//	                 client disconnecting cancels the check
//	                 mid-enumeration.
//	POST /stimulus - run one concrete stimulus against a design's
//	                 assertions on the scalar checker (sva.Checker) and
//	                 reply with the verdict, the failed assertions and
//	                 the failure log. The design is elaborated once and
//	                 shared through the verdict cache. The client
//	                 disconnecting cancels the run.
//	GET  /metrics  - verification-service counters (hits, misses,
//	                 coalesced waiters, evictions, in-flight, disk hits)
//	                 plus the server's admission counters. hits
//	                 counts /check and /stimulus lookups answered from
//	                 the verdict cache, disk_hits /check answers read
//	                 from the -store directory.
//
// With -store DIR verdict records persist across restarts: a record is
// written to the directory before its /check is answered, and a second
// serve over the same directory answers repeated checks from disk
// without recomputing. Admission control is a bounded concurrency
// queue (overflow is rejected with 429) plus a per-client token bucket
// (X-Client header, falling back to the remote address); a bucket that
// has refilled is dropped, so rotating X-Client values cannot grow the
// server's memory.
// Request bodies over 1 MiB (maxBodyBytes) are rejected with 413,
// /stimulus requests deeper than 4096 rows (maxStimulusRows) or naming an
// input column twice with 422, and so are /check options past their caps
// (maxCheckDepth, maxRandomRuns, maxExhaustiveBits, maxConstBits). A
// /check or /stimulus still running after 30 s (checkDeadline) is
// cancelled with 503.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/sim"
	"repro/internal/sva"
	"repro/internal/verify"
	"repro/internal/verilog"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	var (
		addr     = flag.String("addr", "localhost:8947", "listen address")
		workers  = flag.Int("workers", 0, "verification worker pool size (0 = GOMAXPROCS)")
		storeDir = flag.String("store", "", "directory for the persistent verdict store (empty = in-memory only)")
		queue    = flag.Int("queue", 64, "admission queue: concurrent requests beyond this are rejected with 429")
		rate     = flag.Float64("rate", 50, "per-client request rate limit per second (0 = unlimited)")
		burst    = flag.Float64("burst", 100, "per-client token-bucket burst size")
	)
	flag.Parse()

	svc := verify.New(*workers)
	var store *verify.DiskStore
	if *storeDir != "" {
		var err error
		if store, err = verify.OpenDiskStore(*storeDir); err != nil {
			log.Fatalf("open store: %v", err)
		}
		svc.SetStore(store)
	}

	srv := newServer(svc, serverConfig{Queue: *queue, Rate: *rate, Burst: *burst})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.routes()}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	log.Printf("listening on %s (store=%q)", *addr, *storeDir)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
	if store != nil {
		// Every answered check is already in the store; Close syncs it to
		// disk. A check still running past the shutdown grace finds the
		// store closed, is not stored, and is recomputed by the next run.
		if err := store.Close(); err != nil {
			log.Fatalf("close store: %v", err)
		}
	}
}

// serverConfig bundles the admission and rate-limit knobs.
type serverConfig struct {
	Queue       int
	Rate, Burst float64
}

// maxBodyBytes caps every request body; a larger one is answered 413. The
// largest catalog design source is about 12 KB.
const maxBodyBytes = 1 << 20

// maxStimulusRows caps a /stimulus request's depth; a deeper one is
// answered 422. Each row simulates one cycle and records a trace row of
// every signal slot (two in the four-state domain), so without the cap a
// body under maxBodyBytes of "[0]," rows asks for about 260k cycles and
// tens of MiB of trace. Formal checks run at depths of 16 to 64.
const maxStimulusRows = 4096

// Caps on the /check options; a request past any of them is answered 422.
// Each caps one factor of a check's cost: cycles per run (the same bound
// as a /stimulus request), random runs, and the two enumeration budgets,
// which allow up to 2^20 runs each. Zero and negative values keep their
// meanings (the formal defaults; a negative RandomRuns disables the random
// phase). The caps bound each factor, not their product: constant-input
// enumeration at both caps is still 2^20 runs of 4096 cycles, which only
// a per-request deadline would stop.
const (
	maxCheckDepth     = maxStimulusRows
	maxRandomRuns     = 1024
	maxExhaustiveBits = 20
	maxConstBits      = 20
)

// checkDeadline bounds one /check or /stimulus request: a check still
// running when it expires is cancelled and answered 503. The option caps
// bound each factor of a check's cost but not their product, so this is
// what bounds a whole request. Catalog checks at the formal defaults take
// milliseconds.
const checkDeadline = 30 * time.Second

// server is the HTTP front end over one verification service.
type server struct {
	svc   *verify.Service
	admit chan struct{}
	rl    *rateLimiter
	// deadline bounds one /check or /stimulus; it is checkDeadline, and
	// tests shorten it.
	deadline time.Duration

	accepted      atomic.Uint64
	rejectedQueue atomic.Uint64
	rejectedRate  atomic.Uint64
}

func newServer(svc *verify.Service, cfg serverConfig) *server {
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	return &server{
		svc:      svc,
		admit:    make(chan struct{}, cfg.Queue),
		rl:       newRateLimiter(cfg.Rate, cfg.Burst),
		deadline: checkDeadline,
	}
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /check", s.limited(s.handleCheck))
	mux.HandleFunc("POST /stimulus", s.limited(s.handleStimulus))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// limited wraps a handler with the admission layers: the per-client token
// bucket first (cheap, per sender), then the bounded concurrency queue
// (global). Both reject with 429 rather than queueing unboundedly.
func (s *server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.rl.allow(clientID(r)) {
			s.rejectedRate.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "per-client rate limit exceeded", http.StatusTooManyRequests)
			return
		}
		select {
		case s.admit <- struct{}{}:
			defer func() { <-s.admit }()
		default:
			s.rejectedQueue.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server at capacity", http.StatusTooManyRequests)
			return
		}
		s.accepted.Add(1)
		h(w, r)
	}
}

// clientID identifies the sender for rate limiting: an explicit X-Client
// header when present, the remote host otherwise.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// checkRequest is the POST /check payload.
type checkRequest struct {
	// Source is the design under check.
	Source string `json:"source"`
	// Assertions optionally replaces the module's own property/assert
	// items: Verilog item text (property declarations and assert items),
	// as they would appear inside the module body.
	Assertions string `json:"assertions,omitempty"`
	// RecordOnly leaves "cached" out of the reply, so the reply is the
	// bare record and identical however the check was answered. Every
	// /check reads the verdict cache, then the store, then computes.
	RecordOnly bool `json:"record_only,omitempty"`
	// Options decodes straight into the one option type of a check,
	// formal.Options. Unknown fields are ignored, among them "lanes" (the
	// removed formal lane mode) and "compile_only" (now Service.Compile).
	Options verify.Options `json:"options"`
}

// validate reports the first option past its cap, or nil.
func validate(o verify.Options) error {
	for _, f := range []struct {
		name   string
		v, max int
	}{
		{"depth", o.Depth, maxCheckDepth},
		{"random_runs", o.RandomRuns, maxRandomRuns},
		{"max_exhaustive_bits", o.MaxExhaustiveBits, maxExhaustiveBits},
		{"max_const_bits", o.MaxConstBits, maxConstBits},
	} {
		if f.v > f.max {
			return fmt.Errorf("%s %d exceeds the limit of %d", f.name, f.v, f.max)
		}
	}
	return nil
}

// checkResponse is the record plus transport-level fields.
type checkResponse struct {
	verify.Record
	// Cached is true when this request did not run the check: it was
	// answered from the verdict cache or the store, or joined a check
	// already running. A record_only reply never carries it.
	Cached bool `json:"cached,omitempty"`
}

// parseAssertions parses candidate assertion item text by wrapping it in a
// throwaway module.
func parseAssertions(text string) ([]verilog.Item, error) {
	if strings.TrimSpace(text) == "" {
		return nil, nil
	}
	m, err := verilog.Parse("module __assertions__(input clk);\n" + text + "\nendmodule\n")
	if err != nil {
		return nil, fmt.Errorf("assertions: %w", err)
	}
	return m.Items, nil
}

func (s *server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req checkRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Source == "" {
		http.Error(w, "empty source", http.StatusBadRequest)
		return
	}
	if err := validate(req.Options); err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	items, err := parseAssertions(req.Assertions)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The request context cancels the check when the client disconnects or
	// the deadline passes; the execution layer propagates it into the
	// simulation loops.
	ctx, cancel := context.WithTimeout(r.Context(), s.deadline)
	defer cancel()
	v, err := s.svc.Check(ctx, req.Source, items, req.Options)
	if err != nil && v.Status != verify.StatusError {
		replyError(w, ctx, err)
		return
	}
	writeJSON(w, checkResponse{Record: v.Record, Cached: v.Cached && !req.RecordOnly})
}

// decodeBody decodes the JSON request body, one JSON value and nothing
// after it but whitespace, into v, reading at most maxBodyBytes. It answers
// 413 for a larger body and 400 for malformed JSON or anything after the
// value, and reports whether v was decoded.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("request body holds more than one JSON value")
		}
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, err.Error(), status)
	return false
}

// replyError maps a failed check to a transport status: a cancelled or
// expired request context gets 503 (a departed client never reads it),
// anything else is a 500.
func replyError(w http.ResponseWriter, ctx context.Context, err error) {
	if ctx.Err() != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		log.Printf("encode response: %v", err)
	}
}

// stimulusRequest is the POST /stimulus payload: run one concrete input
// sequence against the design's assertions.
type stimulusRequest struct {
	Source string `json:"source"`
	// Inputs names the driven columns; empty means the design's data
	// inputs (clock and reset excluded) in declaration order.
	Inputs []string `json:"inputs,omitempty"`
	// Rows holds one value per input per cycle.
	Rows [][]uint64 `json:"rows"`
	// FourState selects the four-state value domain.
	FourState bool `json:"four_state,omitempty"`
}

// stimulusResponse reports one stimulus check.
type stimulusResponse struct {
	Pass          bool     `json:"pass"`
	FailedAsserts []string `json:"failed_asserts,omitempty"`
	Log           string   `json:"log,omitempty"`
}

func (s *server) handleStimulus(w http.ResponseWriter, r *http.Request) {
	var req stimulusRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Source == "" || len(req.Rows) == 0 {
		http.Error(w, "source and rows are required", http.StatusBadRequest)
		return
	}
	if len(req.Rows) > maxStimulusRows {
		http.Error(w, fmt.Sprintf("%d rows exceed the limit of %d", len(req.Rows), maxStimulusRows), http.StatusUnprocessableEntity)
		return
	}
	// The deadline and the client disconnecting cancel the elaboration
	// wait and the run, as they do a /check.
	ctx, cancel := context.WithTimeout(r.Context(), s.deadline)
	defer cancel()
	// Elaborate through the service: identical designs share one cached,
	// plan-warmed *compile.Design.
	v, err := s.svc.Compile(ctx, req.Source)
	if err != nil {
		replyError(w, ctx, err)
		return
	}
	if v.Status != verify.StatusPass {
		http.Error(w, "design does not compile:\n"+v.Log, http.StatusUnprocessableEntity)
		return
	}
	stim, err := buildStimulus(v.Design, req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	mode := sim.TwoState
	if req.FourState {
		mode = sim.FourState
	}
	o, err := sva.NewChecker(v.Design, mode).Check(ctx, stim)
	if err != nil && ctx.Err() != nil {
		replyError(w, ctx, err)
		return
	}
	if err != nil {
		// A run error, such as combinational logic that does not settle,
		// belongs to the design, as a compile error does.
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	writeJSON(w, stimulusReply(v.Design, o))
}

// metricsResponse is the GET /metrics payload.
type metricsResponse struct {
	Verify verify.Metrics `json:"verify"`
	Server serverMetrics  `json:"server"`
}

type serverMetrics struct {
	Accepted      uint64 `json:"accepted"`
	RejectedQueue uint64 `json:"rejected_queue"`
	RejectedRate  uint64 `json:"rejected_rate"`
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, metricsResponse{
		Verify: s.svc.Metrics(),
		Server: serverMetrics{
			Accepted:      s.accepted.Load(),
			RejectedQueue: s.rejectedQueue.Load(),
			RejectedRate:  s.rejectedRate.Load(),
		},
	})
}

// rateLimiter is a per-client token bucket: each client accrues rate
// tokens per second up to burst; a request spends one. A bucket that has
// refilled to burst behaves exactly like an absent one, so such buckets
// are swept out whenever the map reaches sweepAt entries. The map then
// holds only clients seen within about burst/rate seconds, however many
// X-Client values a sender rotates through.
type rateLimiter struct {
	rate, burst float64
	now         func() time.Time // the clock; a seam for tests

	mu      sync.Mutex
	buckets map[string]*bucket
	sweepAt int
}

// minSweep is the smallest bucket-map size that triggers a sweep. After a
// sweep the next one waits until the map doubles what survived, so each
// new client costs amortised O(1) sweep work.
const minSweep = 1024

type bucket struct {
	tokens float64
	last   time.Time
}

func newRateLimiter(rate, burst float64) *rateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{rate: rate, burst: burst, now: time.Now, buckets: map[string]*bucket{}, sweepAt: minSweep}
}

// refilled returns b's token count at now, capped at burst.
func (rl *rateLimiter) refilled(b *bucket, now time.Time) float64 {
	return min(b.tokens+now.Sub(b.last).Seconds()*rl.rate, rl.burst)
}

func (rl *rateLimiter) allow(client string) bool {
	if rl.rate <= 0 {
		return true
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	now := rl.now()
	b := rl.buckets[client]
	if b == nil {
		if len(rl.buckets) >= rl.sweepAt {
			rl.sweep(now)
		}
		b = &bucket{tokens: rl.burst, last: now}
		rl.buckets[client] = b
	}
	b.tokens = rl.refilled(b, now)
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// sweep deletes every bucket that has refilled to burst. Called with mu
// held.
func (rl *rateLimiter) sweep(now time.Time) {
	for c, b := range rl.buckets {
		if rl.refilled(b, now) >= rl.burst {
			delete(rl.buckets, c)
		}
	}
	rl.sweepAt = max(minSweep, 2*len(rl.buckets))
}
