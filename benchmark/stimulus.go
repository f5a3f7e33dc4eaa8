package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/formal"
	"repro/internal/sim"
	"repro/internal/sva"
)

// stimulusDesigns are the serve-stimulus designs: four single-clock
// catalog designs, and CDCCross, whose requests name both clock columns so
// a batch of them reaches the multi-clock decline of sva.CheckLanes.
func stimulusDesigns() []*corpus.Blueprint {
	return []*corpus.Blueprint{corpus.Accu(8, 2), corpus.FIFOFlags(4, 3), corpus.Handshake(3),
		corpus.SeqMultiplier(4), corpus.CDCCross()}
}

// stimulusFourState is the share of requests in the four-state domain.
const stimulusFourState = 0.2

type stimulusRequest struct {
	Source    string     `json:"source"`
	Inputs    []string   `json:"inputs"`
	Rows      [][]uint64 `json:"rows"`
	FourState bool       `json:"four_state,omitempty"`
}

type stimulusReply struct {
	Pass          bool     `json:"pass"`
	FailedAsserts []string `json:"failed_asserts,omitempty"`
	Log           string   `json:"log,omitempty"`
	Batched       bool     `json:"batched"`
}

// stimulusCase is one distinct request with its in-process reference reply.
type stimulusCase struct {
	design int
	stim   sim.VecStimulus
	mode   sim.Mode
	body   []byte
	want   stimulusReply
}

type stimulusWorkload struct {
	bps     []*corpus.Blueprint
	designs []*compile.Design
	cases   []stimulusCase
	batched atomic.Int64
}

// newStimulusWorkload draws the distinct requests (16 to 32 rows each,
// reset held for the first two rows, every data column random) and
// computes each one's reply on the scalar engine in this process:
// sim.RunVecCtx, sva.Check and sva.FormatLog, the reference the server's
// lane and scalar paths must both reproduce.
func (b *bench) newStimulusWorkload(seed int64) (*stimulusWorkload, error) {
	w := &stimulusWorkload{bps: stimulusDesigns()}
	for _, bp := range w.bps {
		d, diags, err := compile.Compile(bp.Source())
		if err != nil || d == nil {
			return nil, fmt.Errorf("%s: %v %s", bp.Name(), err, compile.FormatDiags(diags))
		}
		w.designs = append(w.designs, d)
	}
	n := 256
	if b.quick {
		n = 32
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		di := i % len(w.bps)
		d := w.designs[di]
		c := stimulusCase{design: di, stim: randomRequest(rng, d)}
		if rng.Float64() < stimulusFourState {
			c.mode = sim.FourState
		}
		tr, err := sim.RunVecCtx(context.Background(), d, c.stim, c.mode)
		if err != nil {
			return nil, fmt.Errorf("%s reference run: %w", d.Module.Name, err)
		}
		res, err := sva.Check(tr)
		if err != nil {
			return nil, fmt.Errorf("%s reference check: %w", d.Module.Name, err)
		}
		c.want = stimulusReply{Pass: !res.Failed(), Log: sva.FormatLog(d.Module.Name, tr, res.Failures)}
		for _, f := range res.Failures {
			if !slices.Contains(c.want.FailedAsserts, f.Assert.Name) {
				c.want.FailedAsserts = append(c.want.FailedAsserts, f.Assert.Name)
			}
		}
		req := stimulusRequest{Source: w.bps[di].Source(), Rows: c.stim.Rows, FourState: c.mode == sim.FourState}
		for _, in := range c.stim.Inputs {
			req.Inputs = append(req.Inputs, in.Name)
		}
		if c.body, err = json.Marshal(req); err != nil {
			return nil, err
		}
		w.cases = append(w.cases, c)
	}
	return w, nil
}

// randomRequest drives every input except a single-clock design's clock
// (the engine ticks it once per row); a multi-clock design's clocks are
// driven as columns, clk_a toggling every row and clk_b every second row
// from a random phase.
func randomRequest(rng *rand.Rand, d *compile.Design) sim.VecStimulus {
	rst := d.Reset()
	var ins []*compile.Signal
	for _, in := range d.Inputs(false) {
		if !d.MultiClock() && len(d.Domains) == 1 && in.Name == d.Domains[0].Signal {
			continue
		}
		ins = append(ins, in)
	}
	depth := 16 + rng.Intn(17)
	phase := rng.Intn(4)
	rows := make([][]uint64, depth)
	for c := range rows {
		row := make([]uint64, len(ins))
		for i, in := range ins {
			switch {
			case rst.Present && in.Name == rst.Name:
				active := c < 2
				if active != rst.ActiveLow {
					row[i] = 1
				}
			case d.MultiClock() && d.Domains[0].Signal == in.Name:
				row[i] = uint64(c % 2)
			case d.MultiClock() && isDomainClock(d, in.Name):
				row[i] = uint64((c + phase) / 2 % 2)
			default:
				row[i] = rng.Uint64() & in.Mask()
			}
		}
		rows[c] = row
	}
	return sim.VecStimulus{Inputs: ins, Rows: rows}
}

func isDomainClock(d *compile.Design, name string) bool {
	for _, dom := range d.Domains {
		if dom.Signal == name {
			return true
		}
	}
	return false
}

// send posts case i and checks the reply against its reference.
func (w *stimulusWorkload) send(c *http.Client, sp *serveProc, i int) error {
	cs := &w.cases[i%len(w.cases)]
	body, err := post(c, sp.base+"/stimulus", cs.body)
	if err != nil {
		return err
	}
	var got stimulusReply
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if got.Batched {
		w.batched.Add(1)
	}
	if got.Pass != cs.want.Pass || got.Log != cs.want.Log || !slices.Equal(got.FailedAsserts, cs.want.FailedAsserts) {
		return fmt.Errorf("case %d (%s): %w: pass %v, failed %v, log %q; want pass %v, failed %v, log %q",
			i%len(w.cases), w.bps[cs.design].Name(), errMismatch, got.Pass, got.FailedAsserts, tail(got.Log, 200),
			cs.want.Pass, cs.want.FailedAsserts, tail(cs.want.Log, 200))
	}
	return nil
}

// warm sends one request per design so every design is compiled and cached
// before timing starts.
func (w *stimulusWorkload) warm(c *http.Client, sp *serveProc) error {
	for i := range w.bps {
		if err := w.send(c, sp, i); err != nil {
			return err
		}
	}
	return nil
}

// measureStimulus runs the serve-stimulus workload: serveStarts server
// starts, each followed by a warm-up request per design (the set-up), then
// a closed loop of one client per CPU over the distinct requests.
func measureStimulus(b *bench, seed int64) (*runResult, error) {
	w, err := b.newStimulusWorkload(seed)
	if err != nil {
		return nil, err
	}
	r := newRun("serve-stimulus", seed)
	clients := runtime.NumCPU()
	c := newClient(clients)
	setup, sp, err := b.serveSetups(func(sp *serveProc) error { return w.warm(c, sp) }, "-rate", "0")
	if err != nil {
		return nil, err
	}
	w.batched.Store(0)
	st := closedLoop(clients, b.seconds, 0, func(i int) error { return w.send(c, sp, i) })
	rss, err := sp.stop()
	if err != nil {
		return nil, err
	}
	r.set("peak_rss_mb", rss, "MiB")
	qps := st.report(r)
	r.setTimes(setup, qps, st.latMS)
	r.extra("stimulus.qps", qps, "1/s")
	r.extra("stimulus.batched_fraction", float64(w.batched.Load())/float64(max(st.completed, 1)), "ratio")
	return r, nil
}

// traceStimulus repeats the workload with a span per request and the same
// client count (batching needs concurrent requests), reads the server's
// batching counters, then replays every distinct request on the scalar
// path and, in request order, pairs of requests with the same design and
// value domain through sim.PackStimuli, sim.RunLanesCtx and sva.CheckLanes,
// counting fallbacks by reason.
func traceStimulus(b *bench, seed int64, measured *runResult) (*runResult, *recorder, error) {
	w, err := b.newStimulusWorkload(seed)
	if err != nil {
		return nil, nil, err
	}
	r := newRun("serve-stimulus", seed)
	sp, err := b.startServe("-rate", "0")
	if err != nil {
		return nil, nil, err
	}
	clients := runtime.NumCPU()
	c := newClient(clients)
	if err := w.warm(c, sp); err != nil {
		sp.kill()
		return nil, nil, err
	}
	before, err := sp.metrics(c)
	if err != nil {
		sp.kill()
		return nil, nil, err
	}
	rec := newRecorder()
	st := closedLoop(clients, b.seconds, 0, func(i int) error {
		a := rec.start(nil, "serve.stimulus")
		err := w.send(c, sp, i)
		a.end(errString(err))
		return err
	})
	after, err := sp.metrics(c)
	if err != nil {
		sp.kill()
		return nil, nil, err
	}
	if _, err := sp.stop(); err != nil {
		return nil, nil, err
	}
	r.Attempted, r.Failed = st.completed+st.failed, st.failed
	if st.wrong > 0 {
		r.fail("%d wrong /stimulus replies: %v", st.wrong, st.problems)
	}
	runs := after.Server.BatchedRuns - before.Server.BatchedRuns
	batched := after.Server.BatchedStimuli - before.Server.BatchedStimuli
	scalar := after.Server.ScalarRuns - before.Server.ScalarRuns
	r.extra("serve.batched_fraction", float64(batched)/float64(max(batched+scalar, 1)), "ratio")
	lanesPerBatch := float64(batched) / float64(max(runs, 1))
	r.extra("serve.lanes_per_batch", lanesPerBatch, "count")
	r.extra("sim.lane_occupancy", lanesPerBatch/64, "ratio")
	r.extra("serve.rejected", float64(after.Server.RejectedQueue+after.Server.RejectedRate-
		before.Server.RejectedQueue-before.Server.RejectedRate), "count")
	misses := after.Verify.Misses - before.Verify.Misses
	coalesced := after.Verify.Coalesced - before.Verify.Coalesced
	verifyRatios(r, after.Verify.Hits-before.Verify.Hits+misses+coalesced, misses, coalesced)

	rp, err := b.replayer(rec, seed)
	if err != nil {
		return nil, nil, err
	}
	designs := make([]*compile.Design, len(w.bps))
	for i, bp := range w.bps {
		it := rp.item(replayItem{src: bp.Source(), opts: formal.Options{Seed: seed, Depth: bp.CheckDepth(16), RandomRuns: 10}})
		if it == nil {
			return nil, nil, fmt.Errorf("%s does not compile in the replay", bp.Name())
		}
		designs[i] = it.design
	}
	start := time.Now()
	type group struct {
		design int
		mode   sim.Mode
	}
	last := map[group]sim.VecStimulus{}
	for _, cs := range w.cases {
		root := rec.start(nil, "replay.stimulus")
		rp.scalarRun(root, designs[cs.design], cs.stim, cs.mode)
		g := group{cs.design, cs.mode}
		if prev, ok := last[g]; ok {
			// The lane packer needs equal depths; the pair runs over the
			// shorter of the two.
			depth := min(len(prev.Rows), len(cs.stim.Rows))
			pair := []sim.VecStimulus{
				{Inputs: prev.Inputs, Rows: prev.Rows[:depth]},
				{Inputs: cs.stim.Inputs, Rows: cs.stim.Rows[:depth]},
			}
			rp.laneRun(root, designs[cs.design], pair, cs.mode)
			delete(last, g)
		} else {
			last[g] = cs.stim
		}
		root.end("")
	}
	r.extra("replay.stimulus_s", time.Since(start).Seconds(), "s")
	if err := rp.close(); err != nil {
		return nil, nil, err
	}
	rp.layerMetrics(r)
	traceOverhead(r, measured, float64(st.completed)/st.elapsed.Seconds(), len(w.cases), len(w.cases))
	return r, rec, nil
}
