package main

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/compile"
	"repro/internal/sim"
	"repro/internal/sva"
)

// batcher runs /stimulus checks, packing compatible ones into single lane
// runs. It is work-conserving: a stimulus whose group key (design, input
// list, depth and value domain) has no run in flight runs at once on its
// handler goroutine, so a lone request never waits. Stimuli that arrive
// while a run for their key is in flight queue on that key and run together
// as the next sva.Batch when it ends. Batches therefore form only when
// requests compete for a key. A queue that reaches the lane cap runs at
// once beside the run in flight; the admission queue bounds every queue.
type batcher struct {
	lanes int
	// check decides one batch. It is checkBatch; tests wrap it to hold a
	// run in flight.
	check func(context.Context, *compile.Design, []sim.VecStimulus, sim.Mode) (sva.Batch, error)

	mu sync.Mutex
	// queued has an entry for each key with a run in flight: the stimuli
	// waiting for that run to end. A key is deleted when it goes idle.
	queued map[groupKey][]*submission

	runs    atomic.Uint64 // lane-packed simulations executed
	batched atomic.Uint64 // stimuli answered from lane runs
	scalar  atomic.Uint64 // stimuli answered by the scalar engine
}

// groupKey identifies a set of stimuli the lane packer accepts together.
// The design pointer stands in for source identity: identical sources
// share one cached *compile.Design through the verification service.
type groupKey struct {
	d     *compile.Design
	mode  sim.Mode
	depth int
	names string
}

type submission struct {
	stim sim.VecStimulus
	resp stimulusResponse
	err  error
	done chan struct{} // closed once resp and err are set
}

func newBatcher(lanes int) *batcher {
	if lanes > 64 {
		lanes = 64
	}
	return &batcher{lanes: lanes, check: checkBatch, queued: map[groupKey][]*submission{}}
}

// checkBatch decides stims as one sva.Batch on a checker of their own.
func checkBatch(ctx context.Context, d *compile.Design, stims []sim.VecStimulus, mode sim.Mode) (sva.Batch, error) {
	return sva.NewChecker(d, mode).Batch(ctx, stims)
}

// submit checks one stimulus and blocks until its verdict is ready, or ctx
// is cancelled: its batch still runs, and this caller's verdict is dropped.
func (b *batcher) submit(ctx context.Context, d *compile.Design, req stimulusRequest) (stimulusResponse, error) {
	stim, err := buildStimulus(d, req)
	if err != nil {
		return stimulusResponse{}, err
	}
	mode := sim.TwoState
	if req.FourState {
		mode = sim.FourState
	}

	sub := &submission{stim: stim, done: make(chan struct{})}
	// An empty column list names the design's default inputs.
	key := groupKey{d: d, mode: mode, depth: len(stim.Rows), names: strings.Join(req.Inputs, "\x00")}

	b.mu.Lock()
	waiting, busy := b.queued[key]
	switch {
	case !busy:
		b.queued[key] = nil
		b.mu.Unlock()
		b.drain(key, []*submission{sub})
	case len(waiting)+1 >= b.lanes:
		b.queued[key] = nil
		b.mu.Unlock()
		full := append(waiting, sub)
		b.run(key, full)
		deliver(full)
	default:
		b.queued[key] = append(waiting, sub)
		b.mu.Unlock()
	}

	select {
	case <-sub.done:
		return sub.resp, sub.err
	case <-ctx.Done():
		return stimulusResponse{}, ctx.Err()
	}
}

// drain runs subs as key's run in flight, then takes what queued meanwhile
// (or deletes the idle key) before delivering, so a key is idle once its
// last verdict is out. What queued runs next, on a goroutine of its own.
func (b *batcher) drain(key groupKey, subs []*submission) {
	b.run(key, subs)
	b.mu.Lock()
	next := b.queued[key]
	if len(next) == 0 {
		delete(b.queued, key)
	} else {
		b.queued[key] = nil
	}
	b.mu.Unlock()
	deliver(subs)
	if len(next) > 0 {
		go b.drain(key, next)
	}
}

// run decides subs as one sva.Batch and stores each verdict in its
// submission. It runs under a background context: one client disconnecting
// must not cancel the other stimuli.
func (b *batcher) run(key groupKey, subs []*submission) {
	stims := make([]sim.VecStimulus, len(subs))
	for i, sub := range subs {
		stims[i] = sub.stim
	}
	// A batch's only error is ctx.Err(), and a background context is
	// never cancelled.
	bt, _ := b.check(context.Background(), key.d, stims, key.mode)
	if bt.Packed {
		b.runs.Add(1)
		b.batched.Add(uint64(len(stims)))
	} else {
		b.scalar.Add(uint64(len(stims)))
	}
	for i, sub := range subs {
		sub.resp, sub.err = outcome(key, &bt, i)
	}
}

// outcome renders stimulus i's verdict as its response. A failing stimulus
// carries the scalar checker's failure log whichever engine ran it.
func outcome(key groupKey, bt *sva.Batch, i int) (stimulusResponse, error) {
	o, err := bt.Lane(i)
	if err != nil {
		return stimulusResponse{}, err
	}
	resp := stimulusResponse{Pass: o.Pass, Batched: bt.Packed}
	if o.Result == nil {
		resp.Log = fmt.Sprintf("%s: all assertions passed (%d cycles)\n", key.d.Module.Name, key.depth)
		return resp, nil
	}
	resp.Log = sva.FormatLog(key.d.Module.Name, o.Trace, o.Result.Failures)
	for _, f := range o.Result.Failures {
		resp.FailedAsserts = appendUnique(resp.FailedAsserts, f.Assert.Name)
	}
	return resp, nil
}

// deliver wakes each submission's waiter, if it has not departed.
func deliver(subs []*submission) {
	for _, sub := range subs {
		close(sub.done)
	}
}

func appendUnique(names []string, n string) []string {
	for _, have := range names {
		if have == n {
			return names
		}
	}
	return append(names, n)
}

// buildStimulus resolves the request's input names against the design and
// shapes the rows into a sim.VecStimulus. The stimulus shares the request's
// rows, which nothing else holds.
func buildStimulus(d *compile.Design, req stimulusRequest) (sim.VecStimulus, error) {
	var inputs []*compile.Signal
	if len(req.Inputs) == 0 {
		// The run loop ticks the (single) clock once per row, so by default
		// only data inputs are stimulus columns; clients driving resets or
		// extra clocks name their columns explicitly.
		inputs = d.Inputs(true)
	} else {
		// Each column names a distinct input, so a request has at most as
		// many columns as the design has inputs.
		inputs = make([]*compile.Signal, len(req.Inputs))
		for i, name := range req.Inputs {
			sig := d.Signals[name]
			if sig == nil || sig.Kind != compile.SigInput {
				return sim.VecStimulus{}, fmt.Errorf("%q is not an input of %s", name, d.Module.Name)
			}
			if slices.Contains(inputs[:i], sig) {
				return sim.VecStimulus{}, fmt.Errorf("input %q is named twice", name)
			}
			inputs[i] = sig
		}
	}
	for c, row := range req.Rows {
		if len(row) != len(inputs) {
			return sim.VecStimulus{}, fmt.Errorf("row %d has %d values for %d inputs", c, len(row), len(inputs))
		}
	}
	return sim.VecStimulus{Inputs: inputs, Rows: req.Rows}, nil
}
