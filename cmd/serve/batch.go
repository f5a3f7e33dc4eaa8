package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compile"
	"repro/internal/sim"
	"repro/internal/sva"
)

// batcher packs compatible queued stimulus checks into single lane runs.
// Requests arriving within one batching window that drive the same design,
// input list, depth and value domain become one sva.Batch (up to the lane
// cap); a group flushes when full or when its window timer fires.
type batcher struct {
	lanes  int
	window time.Duration

	mu     sync.Mutex
	groups map[groupKey]*group

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

type group struct {
	key   groupKey
	subs  []*submission
	timer *time.Timer
}

type submission struct {
	stim sim.VecStimulus
	ch   chan submitResult
}

type submitResult struct {
	resp stimulusResponse
	err  error
}

func newBatcher(lanes int, window time.Duration) *batcher {
	if lanes > 64 {
		lanes = 64
	}
	return &batcher{lanes: lanes, window: window, groups: map[groupKey]*group{}}
}

// submit queues one stimulus for the design and blocks until its batch has
// run (or ctx is cancelled, in which case the batch still runs for the
// other lanes and this caller's slot is discarded).
func (b *batcher) submit(ctx context.Context, d *compile.Design, req stimulusRequest) (stimulusResponse, error) {
	stim, err := buildStimulus(d, req)
	if err != nil {
		return stimulusResponse{}, err
	}
	mode := sim.TwoState
	if req.FourState {
		mode = sim.FourState
	}

	sub := &submission{stim: stim, ch: make(chan submitResult, 1)}
	key := groupKey{d: d, mode: mode, depth: len(stim.Rows), names: inputNames(stim.Inputs)}

	b.mu.Lock()
	g := b.groups[key]
	if g == nil {
		g = &group{key: key}
		b.groups[key] = g
		g.timer = time.AfterFunc(b.window, func() { b.flush(g) })
	}
	g.subs = append(g.subs, sub)
	if len(g.subs) >= b.lanes {
		// Full: detach under the lock so late arrivals start a new group,
		// then run without it.
		delete(b.groups, key)
		g.timer.Stop()
		b.mu.Unlock()
		b.run(g)
	} else {
		b.mu.Unlock()
	}

	select {
	case r := <-sub.ch:
		return r.resp, r.err
	case <-ctx.Done():
		return stimulusResponse{}, ctx.Err()
	}
}

// flush is the window-timer path: detach the group if it is still queued
// and run it.
func (b *batcher) flush(g *group) {
	b.mu.Lock()
	if b.groups[g.key] != g {
		b.mu.Unlock()
		return // already flushed by the full-batch path
	}
	delete(b.groups, g.key)
	b.mu.Unlock()
	b.run(g)
}

// run executes one detached group through sva.CheckBatch, which packs it
// into one lane run when the lane engine can decide it and runs it on the
// scalar engine otherwise. The batch simulates under a background context:
// one client disconnecting must not cancel the other lanes.
func (b *batcher) run(g *group) {
	stims := make([]sim.VecStimulus, len(g.subs))
	for i, sub := range g.subs {
		stims[i] = sub.stim
	}
	// CheckBatch's only error is ctx.Err(), and a background context is
	// never cancelled.
	bt, _ := sva.CheckBatch(context.Background(), g.key.d, stims, g.key.mode)
	if bt.Packed {
		b.runs.Add(1)
		b.batched.Add(uint64(len(stims)))
	} else {
		b.scalar.Add(uint64(len(stims)))
	}
	for i, sub := range g.subs {
		sub.deliver(outcome(g.key, bt, i))
	}
}

// outcome renders stimulus i's verdict as its response. A failing stimulus
// carries the scalar checker's failure log whichever engine ran it.
func outcome(key groupKey, bt *sva.Batch, i int) submitResult {
	o, err := bt.Lane(i)
	if err != nil {
		return submitResult{err: err}
	}
	resp := stimulusResponse{Pass: o.Pass, Batched: bt.Packed}
	if o.Result == nil {
		resp.Log = fmt.Sprintf("%s: all assertions passed (%d cycles)\n", key.d.Module.Name, key.depth)
		return submitResult{resp: resp}
	}
	resp.Log = sva.FormatLog(key.d.Module.Name, o.Trace, o.Result.Failures)
	for _, f := range o.Result.Failures {
		resp.FailedAsserts = appendUnique(resp.FailedAsserts, f.Assert.Name)
	}
	return submitResult{resp: resp}
}

func (s *submission) deliver(r submitResult) {
	s.ch <- r // buffered; a departed waiter never blocks the batch
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
// shapes the rows into a sim.VecStimulus.
func buildStimulus(d *compile.Design, req stimulusRequest) (sim.VecStimulus, error) {
	var inputs []*compile.Signal
	if len(req.Inputs) == 0 {
		// The run loop ticks the (single) clock once per row, so by default
		// only data inputs are stimulus columns; clients driving resets or
		// extra clocks name their columns explicitly.
		inputs = d.Inputs(true)
	} else {
		for _, name := range req.Inputs {
			sig := d.Signals[name]
			if sig == nil || sig.Kind != compile.SigInput {
				return sim.VecStimulus{}, fmt.Errorf("%q is not an input of %s", name, d.Module.Name)
			}
			inputs = append(inputs, sig)
		}
	}
	rows := make([][]uint64, len(req.Rows))
	for c, row := range req.Rows {
		if len(row) != len(inputs) {
			return sim.VecStimulus{}, fmt.Errorf("row %d has %d values for %d inputs", c, len(row), len(inputs))
		}
		rows[c] = append([]uint64(nil), row...)
	}
	return sim.VecStimulus{Inputs: inputs, Rows: rows}, nil
}

// inputNames renders the driven column list as a group-key component.
func inputNames(inputs []*compile.Signal) string {
	var s string
	for _, in := range inputs {
		s += in.Name + "\x00"
	}
	return s
}
