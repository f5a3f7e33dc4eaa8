package main

import (
	"fmt"
	"slices"

	"repro/internal/compile"
	"repro/internal/sim"
	"repro/internal/sva"
)

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

// stimulusReply renders a checked stimulus as its /stimulus reply: the
// failure log over the checked trace and the failed assertions, each named
// once, in failure order.
func stimulusReply(d *compile.Design, o sva.Outcome) stimulusResponse {
	resp := stimulusResponse{Pass: o.Pass, Log: sva.FormatLog(d.Module.Name, o.Trace, o.Result.Failures)}
	for _, f := range o.Result.Failures {
		if !slices.Contains(resp.FailedAsserts, f.Assert.Name) {
			resp.FailedAsserts = append(resp.FailedAsserts, f.Assert.Name)
		}
	}
	return resp
}
