package sim

import (
	"context"
	"errors"

	"repro/internal/compile"
)

// This file keeps the names of the removed lane engine that the benchmark
// module's traced lane rows still compile against. Every one declines: no
// design has a lane plan and no batch runs, so those rows read 0. They go
// when the benchmark drops its lane rows (ROADMAP item 10).

var errNoLanes = errors.New("sim: the lane engine is removed; run each stimulus on RunVecCtx")

// LanePlan declines: PlanLanes never returns one. It goes with the
// benchmark's lane rows (ROADMAP item 10).
type LanePlan struct{}

// PlanLanes declines every design: it returns nil. It goes with the
// benchmark's lane rows (ROADMAP item 10).
func PlanLanes(*compile.Design) *LanePlan { return nil }

// LanesOK declines every design in both value domains: it returns false.
// It goes with the benchmark's lane rows (ROADMAP item 10).
func LanesOK(*compile.Design, Mode) bool { return false }

// LaneStimulus declines: PackStimuli never builds one. It goes with the
// benchmark's lane rows (ROADMAP item 10).
type LaneStimulus struct{ N int }

// PackStimuli declines every batch with an error. It goes with the
// benchmark's lane rows (ROADMAP item 10).
func PackStimuli([]VecStimulus) (*LaneStimulus, error) { return nil, errNoLanes }

// LaneTrace declines: RunLanesCtx never returns one. It goes with the
// benchmark's lane rows (ROADMAP item 10).
type LaneTrace struct{ Design *compile.Design }

// Len returns 0: a LaneTrace samples nothing.
func (*LaneTrace) Len() int { return 0 }

// RunLanesCtx declines every batch with an error. It goes with the
// benchmark's lane rows (ROADMAP item 10).
func RunLanesCtx(context.Context, *compile.Design, *LaneStimulus, Mode) (*LaneTrace, error) {
	return nil, errNoLanes
}
