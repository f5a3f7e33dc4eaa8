package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bugs"
	"repro/internal/compile"
	"repro/internal/formal"
	"repro/internal/lint"
	"repro/internal/sim"
	"repro/internal/sva"
	"repro/internal/verify"
	"repro/internal/verilog"
)

// replayItem is one source a workload verified, with the bounded-check
// options the workload used for it.
type replayItem struct {
	src  string
	opts formal.Options
}

// replayer re-executes a workload's design population layer by layer, in
// this process, with a span around every call into a layer:
//
//	verilog.ParseSet -> compile.Flatten (hierarchical sets) ->
//	compile.Elaborate -> sim.PlanOf / sim.PlanLanes -> scalar and lane
//	simulation in both value domains with sva.Check / sva.CheckLanes ->
//	formal.Check -> lint.Analyze -> bugs.Enumerate -> DiskStore Put/Get.
//
// Every workload's traced run feeds its own population through the same
// replay, so each per-layer metric is measured on every workload, over the
// designs that workload actually sends through the stack.
type replayer struct {
	rec   *recorder
	rng   *rand.Rand
	store *verify.DiskStore

	// perCycle holds per-cycle (or per lane-cycle) costs in ns by span name.
	perCycle map[string][]float64
	// fallback counts lane batches that could not run lane-parallel, by
	// reason.
	fallback map[string]int
	lanes    int // lane batches attempted
	runs     []float64
	// strategyMS holds bounded-check times by formal.Result.Strategy.
	strategyMS map[string][]float64
	checks     int
}

func newReplayer(rec *recorder, seed int64, storeDir string) (*replayer, error) {
	ds, err := verify.OpenDiskStore(storeDir)
	if err != nil {
		return nil, err
	}
	return &replayer{rec: rec, rng: rand.New(rand.NewSource(seed)), store: ds,
		perCycle: map[string][]float64{}, fallback: map[string]int{}, strategyMS: map[string][]float64{}}, nil
}

// replayer returns a replayer whose disk store lives in a fresh temporary
// directory.
func (b *bench) replayer(rec *recorder, seed int64) (*replayer, error) {
	dir, err := b.tempDir("store-")
	if err != nil {
		return nil, err
	}
	return newReplayer(rec, seed, dir)
}

func (rp *replayer) close() error { return rp.store.Close() }

// replayed is what one replayed item leaves for workload-specific steps.
type replayed struct {
	design *compile.Design
	res    *formal.Result // two-state bounded check
}

// item replays one source; it returns nil when the source does not
// compile (the workload saw the same compile error).
func (rp *replayer) item(it replayItem) *replayed {
	root := rp.rec.start(nil, "replay")
	defer root.end("")
	var set *verilog.SourceSet
	var err error
	if rp.rec.timed(root, "verilog.parse", func() string {
		set, err = verilog.ParseSet(it.src)
		return errString(err)
	}); err != nil {
		return nil
	}
	top, err := set.Top()
	if err != nil {
		return nil
	}
	flat := top
	if len(set.Modules) > 1 || len(top.Instances()) > 0 {
		var diags []compile.Diagnostic
		rp.rec.timed(root, "compile.flatten", func() string {
			flat, diags = compile.Flatten(set)
			if flat == nil || compile.HasErrors(diags) {
				return "flatten error"
			}
			return ""
		})
		if flat == nil || compile.HasErrors(diags) {
			return nil
		}
	}
	var d *compile.Design
	var diags []compile.Diagnostic
	rp.rec.timed(root, "compile.elaborate", func() string {
		d, diags = compile.Elaborate(flat)
		if compile.HasErrors(diags) {
			return "elaboration error"
		}
		return ""
	})
	if compile.HasErrors(diags) {
		return nil
	}
	rp.rec.timed(root, "sim.plan_build", func() string {
		if sim.PlanOf(d) == nil {
			return "unplannable"
		}
		return ""
	})
	rp.rec.timed(root, "sim.lanes_build", func() string {
		if sim.PlanLanes(d) == nil {
			return "no lane plan"
		}
		return ""
	})
	opts := it.opts.Normalized()
	for _, mode := range []sim.Mode{sim.TwoState, sim.FourState} {
		rp.scalarRun(root, d, rp.randomStimulus(d, opts.Depth), mode)
		stims := make([]sim.VecStimulus, 64)
		for l := range stims {
			stims[l] = rp.randomStimulus(d, opts.Depth)
		}
		rp.laneRun(root, d, stims, mode)
	}
	out := &replayed{design: d}
	out.res = rp.formalCheck(root, d, it.opts)
	rp.rec.timed(root, "lint.analyze", func() string {
		lint.Analyze(d)
		return ""
	})
	rp.rec.timed(root, "bugs.enumerate", func() string {
		bugs.Enumerate(top, 0)
		return ""
	})
	if out.res != nil {
		rp.storeRoundTrip(root, it, out.res)
	}
	return out
}

// formalCheck runs one bounded check inside a span.
func (rp *replayer) formalCheck(parent *active, d *compile.Design, opts formal.Options) *formal.Result {
	var res *formal.Result
	dur := rp.rec.timed(parent, "formal.check", func() string {
		var err error
		res, err = formal.Check(context.Background(), d, opts)
		return errString(err)
	})
	if res != nil {
		rp.checks++
		rp.runs = append(rp.runs, float64(res.Runs))
		rp.strategyMS[res.Strategy] = append(rp.strategyMS[res.Strategy], float64(dur.Nanoseconds())/1e6)
	}
	return res
}

// scalarRun times one plan-engine run and its assertion check per cycle.
// The first run in a domain builds that domain's lowering, so it runs once
// untimed first.
func (rp *replayer) scalarRun(parent *active, d *compile.Design, stim sim.VecStimulus, mode sim.Mode) *sim.Trace {
	if _, err := sim.RunVecCtx(context.Background(), d, stim, mode); err != nil {
		return nil
	}
	name := "sim.run.plan2"
	if mode == sim.FourState {
		name = "sim.run.plan4"
	}
	var tr *sim.Trace
	dur := rp.rec.timed(parent, name, func() string {
		var err error
		tr, err = sim.RunVecCtx(context.Background(), d, stim, mode)
		return errString(err)
	})
	if tr == nil || tr.Len() == 0 {
		return nil
	}
	rp.perCycle[name] = append(rp.perCycle[name], float64(dur.Nanoseconds())/float64(tr.Len()))
	sdur := rp.rec.timed(parent, "sva.check", func() string {
		_, err := sva.Check(tr)
		return errString(err)
	})
	rp.perCycle["sva.check"] = append(rp.perCycle["sva.check"], float64(sdur.Nanoseconds())/float64(tr.Len()))
	return tr
}

// laneRun packs stimuli into one lane batch and times the lane engine and
// sva.CheckLanes per lane-cycle, counting batches that fall back by reason:
// multiclock (CheckLanes declines multi-clock designs), unplannable (no lane
// lowering for the design or its assertions) and runtime (the lane engine
// or checker returned an error).
func (rp *replayer) laneRun(parent *active, d *compile.Design, stims []sim.VecStimulus, mode sim.Mode) {
	rp.lanes++
	switch {
	case d.MultiClock():
		rp.fallback["multiclock"]++
		return
	case !sim.LanesOK(d, mode):
		rp.fallback["unplannable"]++
		return
	}
	ls, err := sim.PackStimuli(stims)
	if err != nil {
		rp.fallback["runtime"]++
		return
	}
	if _, err := sim.RunLanesCtx(context.Background(), d, ls, mode); err != nil {
		rp.fallback["runtime"]++
		return
	}
	name := "sim.run.lanes2"
	if mode == sim.FourState {
		name = "sim.run.lanes4"
	}
	var lt *sim.LaneTrace
	dur := rp.rec.timed(parent, name, func() string {
		lt, err = sim.RunLanesCtx(context.Background(), d, ls, mode)
		return errString(err)
	})
	if err != nil || lt.Len() == 0 {
		rp.fallback["runtime"]++
		return
	}
	laneCycles := float64(lt.Len() * ls.N)
	rp.perCycle[name] = append(rp.perCycle[name], float64(dur.Nanoseconds())/laneCycles)
	sdur := rp.rec.timed(parent, "sva.checklanes", func() string {
		_, err = sva.CheckLanes(lt)
		return errString(err)
	})
	if err != nil {
		rp.fallback["runtime"]++
		return
	}
	rp.perCycle["sva.checklanes"] = append(rp.perCycle["sva.checklanes"], float64(sdur.Nanoseconds())/laneCycles)
}

// storeRoundTrip writes the check's record to the disk store and reads it
// back, each inside a span.
func (rp *replayer) storeRoundTrip(parent *active, it replayItem, res *formal.Result) {
	rec := &verify.Record{Status: verify.StatusPass, Log: res.Log, Strategy: res.Strategy,
		Runs: res.Runs, VacuousAsserts: res.VacuousAsserts}
	if !res.Pass {
		rec.Status = verify.StatusAssertFail
		if res.Failure != nil {
			rec.FailedAsserts = []string{res.Failure.Assert.Name}
		}
	}
	key := sha256.Sum256([]byte(fmt.Sprintf("%+v\x00%s", it.opts.Normalized(), it.src)))
	rp.rec.timed(parent, "store.put", func() string { return errString(rp.store.Put(key, rec)) })
	rp.rec.timed(parent, "store.get", func() string {
		got, err := rp.store.Get(key)
		if err == nil && got == nil {
			return "missing"
		}
		return errString(err)
	})
}

// randomStimulus draws depth rows of random values for the design's data
// inputs (clock and reset columns are left to the engine's defaults).
func (rp *replayer) randomStimulus(d *compile.Design, depth int) sim.VecStimulus {
	ins := d.Inputs(true)
	rows := make([][]uint64, depth)
	for c := range rows {
		row := make([]uint64, len(ins))
		for i, in := range ins {
			row[i] = rp.rng.Uint64() & in.Mask()
		}
		rows[c] = row
	}
	return sim.VecStimulus{Inputs: ins, Rows: rows}
}

// layerMetrics reports the shared per-layer metric set from the replay's
// spans and counters.
func (rp *replayer) layerMetrics(r *runResult) {
	spans := rp.rec.snapshot()
	r.set("verilog.parse_us", medianUS(spans, "verilog.parse"), "us")
	r.set("compile.elaborate_us", medianUS(spans, "compile.elaborate"), "us")
	r.set("sim.plan_build_us", medianUS(spans, "sim.plan_build"), "us")
	r.set("sim.lanes_build_us", medianUS(spans, "sim.lanes_build"), "us")
	r.set("sim.cycle_ns.plan2", median(rp.perCycle["sim.run.plan2"]), "ns")
	r.set("sim.cycle_ns.plan4", median(rp.perCycle["sim.run.plan4"]), "ns")
	r.set("sim.cycle_ns.lanes2", median(rp.perCycle["sim.run.lanes2"]), "ns")
	r.set("sim.cycle_ns.lanes4", median(rp.perCycle["sim.run.lanes4"]), "ns")
	r.set("sva.check_ns_per_cycle", median(rp.perCycle["sva.check"]), "ns")
	r.set("sva.checklanes_ns_per_cycle", median(rp.perCycle["sva.checklanes"]), "ns")
	for _, reason := range []string{"unplannable", "runtime", "multiclock"} {
		r.set("sim.lane_fallback."+reason, float64(rp.fallback[reason]), "count")
	}
	r.set("formal.check_ms", medianUS(spans, "formal.check")/1e3, "ms")
	r.set("formal.runs_per_check", median(rp.runs), "count")
	r.set("lint.analyze_us", medianUS(spans, "lint.analyze"), "us")
	r.set("bugs.enumerate_us", medianUS(spans, "bugs.enumerate"), "us")
	r.set("store.put_us", medianUS(spans, "store.put"), "us")
	r.set("store.get_us", medianUS(spans, "store.get"), "us")

	if us := medianUS(spans, "compile.flatten"); us > 0 {
		r.extra("compile.flatten_us", us, "us")
	}
	r.extra("replay.lane_batches", float64(rp.lanes), "count")
	r.extra("replay.formal_checks", float64(rp.checks), "count")
	for s, ms := range rp.strategyMS {
		r.extra("formal.check_ms."+s, median(ms), "ms")
		r.extra("formal.checks."+s, float64(len(ms)), "count")
	}
}

// verifyRatios reports the verification service's cache effectiveness for
// the traced run: the share of lookups answered without computing, and the
// share that joined an in-flight computation.
func verifyRatios(r *runResult, lookups, misses, coalesced uint64) {
	if lookups == 0 {
		lookups = 1
	}
	r.set("verify.hit_ratio", 1-float64(misses)/float64(lookups), "ratio")
	r.set("verify.coalesced_ratio", float64(coalesced)/float64(lookups), "ratio")
	r.extra("verify.lookups", float64(lookups), "count")
	r.extra("verify.misses", float64(misses), "count")
}

// traceOverhead reports how much slower the traced run's wall-clock
// throughput was than the measured run's, and how much of the workload's
// verification work the replay covered.
func traceOverhead(r *runResult, measured *runResult, tracedPerS float64, replayed, workloadChecks int) {
	m := measured.Extra["work_per_s"].Value
	overhead := 0.0
	if tracedPerS > 0 {
		overhead = m/tracedPerS - 1
	}
	r.set("trace.overhead", overhead, "ratio")
	r.extra("trace.work_per_s", tracedPerS, "1/s")
	cov := 0.0
	if workloadChecks > 0 {
		cov = float64(replayed) / float64(workloadChecks)
	}
	r.set("replay.coverage", cov, "ratio")
	r.extra("replay.workload_checks", float64(workloadChecks), "count")
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sinceMS is the time since t in milliseconds.
func sinceMS(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
