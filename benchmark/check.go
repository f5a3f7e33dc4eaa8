package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/bugs"
	"repro/internal/corpus"
	"repro/internal/formal"
)

// checkDigest pins the sha256 of the serve-check set-up replies (the
// stored half of the key pool, in key order) at seed 211.
const checkDigest = "29dc522c7aa846fc4e4897c534589aa7aaf6cdefebd637370843ceddcc28bd6c"

// The serve-check request mix. Every request is a record_only /check; its
// tier follows from where its key was first answered:
//
//   - miss (checkMissShare): a key never requested before, computed
//     and written to the store;
//   - disk (checkDiskShare): a key stored during set-up, answered from
//     the disk tier after the restart;
//   - memory (the rest): a key already requested in this phase, answered
//     from the verdict cache or the store's memory tier.
//
// With 96% memory hits the median sits inside the memory tier and with 4%
// misses and disk hits together the p99 sits inside the slower tiers, so no
// reported percentile rests on the boundary between memory and the rest.
const (
	checkMissShare = 0.02
	checkDiskShare = 0.02
)

// checkOptions are the options of every /check request. The exhaustive
// budget is held at 8 bits so every check runs the directed and random
// strategies: with the default 16 bits a tenth of the pool enumerates up
// to 2^16 sequences (100+ ms each against a 0.6 ms median), and how many of
// those a run draws would decide its throughput.
type checkOptions struct {
	Seed              int64 `json:"seed"`
	Depth             int   `json:"depth"`
	RandomRuns        int   `json:"random_runs"`
	MaxExhaustiveBits int   `json:"max_exhaustive_bits"`
	Lanes             int   `json:"lanes"`
	FourState         bool  `json:"four_state,omitempty"`
}

func (o checkOptions) formal() formal.Options {
	return formal.Options{Seed: o.Seed, Depth: o.Depth, RandomRuns: o.RandomRuns,
		MaxExhaustiveBits: o.MaxExhaustiveBits, Lanes: o.Lanes, FourState: o.FourState}
}

type checkRequest struct {
	Source     string       `json:"source"`
	RecordOnly bool         `json:"record_only"`
	Options    checkOptions `json:"options"`
}

// checkKey is one distinct /check request.
type checkKey struct {
	src  string
	opts checkOptions
	body []byte
}

// checkWorkload is one seed's key pool and request plan: keys [0, stored)
// are stored during set-up, keys [stored, len(keys)) are fresh.
type checkWorkload struct {
	keys   []checkKey
	stored int
	plan   []int32 // key of request i (wrapping past the end)
	tier   []byte  // 'm' miss, 'd' disk, 'r' memory, per plan entry

	mu    sync.Mutex
	first [][]byte // first reply per key
}

// checkPerSecond sizes the serve-check phase: it sends a fixed number of
// requests, checkPerSecond per second of -seconds, about the QPS this
// workload reaches on a 2-core Xeon. A fixed count, not a fixed duration,
// keeps the number of misses (and with them the verdicts the server keeps
// in memory) the same in every run, so peak memory does not follow
// throughput.
const checkPerSecond = 9000

// newCheckWorkload draws the key pool from the catalog's golden designs
// and every single-site mutant of them (4459 distinct sources), each in
// both value domains, shuffled by the seed. A 10-second phase draws 1800
// of the 4459 fresh keys and 1800 of the 4459 stored ones.
func (b *bench) newCheckWorkload(seed int64) (*checkWorkload, error) {
	perDesign, planLen := 0, checkPerSecond*int(b.seconds/time.Second)
	if b.quick {
		perDesign = 3
	}
	seen := map[string]bool{}
	var keys []checkKey
	add := func(src string, depth int) error {
		if seen[src] {
			return nil
		}
		seen[src] = true
		for _, four := range []bool{false, true} {
			k := checkKey{src: src, opts: checkOptions{Seed: 7, Depth: depth, RandomRuns: 10,
				MaxExhaustiveBits: 8, Lanes: 64, FourState: four}}
			body, err := json.Marshal(checkRequest{Source: src, RecordOnly: true, Options: k.opts})
			if err != nil {
				return err
			}
			k.body = body
			keys = append(keys, k)
		}
		return nil
	}
	for _, bp := range corpus.Catalog() {
		depth := bp.CheckDepth(16)
		if err := add(bp.Source(), depth); err != nil {
			return nil, err
		}
		for _, mu := range bugs.Enumerate(bp.Module, perDesign) {
			if err := add(bp.SourceWith(mu.Mutant), depth); err != nil {
				return nil, err
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	w := &checkWorkload{keys: keys, stored: len(keys) / 2, first: make([][]byte, len(keys))}
	w.makePlan(rng, planLen)
	return w, nil
}

// makePlan draws the request sequence. Should the fresh or stored keys run
// out, the remaining requests become memory hits; the planned tier shares
// are reported with every run.
func (w *checkWorkload) makePlan(rng *rand.Rand, n int) {
	nextFresh, nextStored := w.stored, 0
	var issued []int32
	for i := 0; i < n; i++ {
		u := rng.Float64()
		k, t := int32(-1), byte('r')
		switch {
		case u < checkMissShare && nextFresh < len(w.keys):
			k, t = int32(nextFresh), 'm'
			nextFresh++
			issued = append(issued, k)
		case u < checkMissShare+checkDiskShare && u >= checkMissShare && nextStored < w.stored:
			k, t = int32(nextStored), 'd'
			nextStored++
			issued = append(issued, k)
		case len(issued) == 0 && nextStored < w.stored:
			k, t = int32(nextStored), 'd'
			nextStored++
			issued = append(issued, k)
		default:
			k = issued[rng.Intn(len(issued))]
		}
		w.plan = append(w.plan, k)
		w.tier = append(w.tier, t)
	}
}

// send posts request i of the plan and checks its reply against the key's
// first reply: every tier must answer byte-identically.
func (w *checkWorkload) send(c *http.Client, sp *serveProc, k int) error {
	body, err := post(c, sp.base+"/check", w.keys[k].body)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.first[k] == nil {
		w.first[k] = body
		return nil
	}
	if !bytes.Equal(w.first[k], body) {
		return fmt.Errorf("key %d: %w:\n first %s\n now   %s", k, errMismatch, tail(string(w.first[k]), 300), tail(string(body), 300))
	}
	return nil
}

// populate stores the first half of the pool through a fresh server and
// stops it, so the next start reads a populated store. It returns the
// digest of the replies.
func (w *checkWorkload) populate(b *bench, storeDir string, clients int) (string, error) {
	sp, err := b.startServe("-rate", "0", "-store", storeDir)
	if err != nil {
		return "", err
	}
	c := newClient(clients)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := g; k < w.stored; k += clients {
				if err := w.send(c, sp, k); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if _, err := sp.stop(); err != nil {
		return "", err
	}
	if err := <-errs; err != nil {
		return "", err
	}
	h := sha256.New()
	for k := 0; k < w.stored; k++ {
		h.Write(w.first[k])
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// measureCheck runs the serve-check workload: populate the store, restart
// the server serveStarts times (the set-up), then send the planned
// requests from a closed loop of one client per CPU. A server ten times
// slower than planned is stopped after ten times -seconds.
func measureCheck(b *bench, seed int64) (*runResult, error) {
	w, err := b.newCheckWorkload(seed)
	if err != nil {
		return nil, err
	}
	r := newRun("serve-check", seed)
	clients := runtime.NumCPU()
	storeDir, err := b.tempDir("store-")
	if err != nil {
		return nil, err
	}
	if r.Digest, err = w.populate(b, storeDir, clients); err != nil {
		return nil, err
	}
	if seed == fixtureSeed && !b.quick && r.Digest != checkDigest {
		r.fail("serve-check set-up replies digest %s, want %s", r.Digest, checkDigest)
	}
	setup, sp, err := b.serveSetups(nil, "-rate", "0", "-store", storeDir)
	if err != nil {
		return nil, err
	}
	c := newClient(clients)
	st := closedLoop(clients, 10*b.seconds, len(w.plan), func(i int) error {
		return w.send(c, sp, int(w.plan[i]))
	})
	rss, err := sp.stop()
	if err != nil {
		return nil, err
	}
	r.set("peak_rss_mb", rss, "MiB")
	qps := st.report(r)
	r.setTimes(setup, qps, st.latMS)
	r.extra("check.qps", qps, "1/s")
	w.reportShares(r, st.completed+st.failed)
	return r, nil
}

// reportShares reports the planned tier shares of the first n requests.
func (w *checkWorkload) reportShares(r *runResult, n int) {
	counts := map[byte]int{}
	for _, t := range w.tier[:min(n, len(w.tier))] {
		counts[t]++
	}
	for t, name := range map[byte]string{'m': "miss", 'd': "disk", 'r': "memory"} {
		r.extra("check.share."+name, float64(counts[t])/float64(max(n, 1)), "ratio")
	}
}

// traceCheck repeats the workload with one client, reading GET /metrics
// after every request: with one request in flight the counter deltas name
// the tier that answered it exactly. The misses are then replayed layer by
// layer in this process with the same options (lanes 64).
func traceCheck(b *bench, seed int64, measured *runResult) (*runResult, *recorder, error) {
	w, err := b.newCheckWorkload(seed)
	if err != nil {
		return nil, nil, err
	}
	r := newRun("serve-check", seed)
	storeDir, err := b.tempDir("store-")
	if err != nil {
		return nil, nil, err
	}
	if _, err := w.populate(b, storeDir, runtime.NumCPU()); err != nil {
		return nil, nil, err
	}
	sp, err := b.startServe("-rate", "0", "-store", storeDir)
	if err != nil {
		return nil, nil, err
	}
	c := newClient(1)
	rec := newRecorder()
	before, err := sp.metrics(c)
	if err != nil {
		sp.kill()
		return nil, nil, err
	}
	prev := before
	tierMS := map[string][]float64{}
	var missed []int
	start := time.Now()
	n := 0
	for ; n < len(w.plan) && time.Since(start) < b.seconds; n++ {
		k := int(w.plan[n])
		root := rec.start(nil, "serve.check")
		t := time.Now()
		err := w.send(c, sp, k)
		ms := sinceMS(t)
		var cur serveMetrics
		rec.timed(root, "http.metrics", func() string {
			var merr error
			cur, merr = sp.metrics(c)
			return errString(merr)
		})
		tier := "store"
		switch {
		case err != nil:
			tier = "failed"
			r.Failed++
			if errors.Is(err, errMismatch) {
				r.fail("%v", err)
			}
		case cur.Verify.Misses > prev.Verify.Misses:
			tier = "miss"
			missed = append(missed, k)
		case cur.Verify.DiskHits > prev.Verify.DiskHits:
			tier = "disk"
		case cur.Verify.Hits > prev.Verify.Hits:
			tier = "memory"
		}
		root.s.Name = "serve.check." + tier
		root.end(errString(err))
		tierMS[tier] = append(tierMS[tier], ms)
		prev = cur
	}
	elapsed := time.Since(start)
	if _, err := sp.stop(); err != nil {
		return nil, nil, err
	}
	r.Attempted = n
	r.extra("serve.mem_hit_us", median(tierMS["memory"])*1e3, "us")
	r.extra("serve.store_hit_us", median(tierMS["store"])*1e3, "us")
	r.extra("serve.disk_hit_us", median(tierMS["disk"])*1e3, "us")
	r.extra("serve.miss_ms", median(tierMS["miss"]), "ms")
	for _, t := range []string{"miss", "disk", "memory", "store"} {
		r.extra("serve.share."+t, float64(len(tierMS[t]))/float64(max(n, 1)), "ratio")
	}
	r.extra("serve.rejected", float64(prev.Server.RejectedQueue+prev.Server.RejectedRate-
		before.Server.RejectedQueue-before.Server.RejectedRate), "count")
	verifyRatios(r, uint64(n), prev.Verify.Misses-before.Verify.Misses, prev.Verify.Coalesced-before.Verify.Coalesced)

	rp, err := b.replayer(rec, seed)
	if err != nil {
		return nil, nil, err
	}
	step := max(1, (len(missed)+299)/300)
	for i := 0; i < len(missed); i += step {
		k := w.keys[missed[i]]
		rp.item(replayItem{src: k.src, opts: k.opts.formal()})
	}
	if err := rp.close(); err != nil {
		return nil, nil, err
	}
	rp.layerMetrics(r)
	traceOverhead(r, measured, float64(n)/elapsed.Seconds(), rp.checks, len(missed))
	return r, rec, nil
}
