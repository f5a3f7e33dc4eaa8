package sva

import (
	"errors"

	"repro/internal/sim"
)

// LaneResult declines: CheckLanes never returns one. It is kept, with the
// declining lane stubs of internal/sim, only for the benchmark module's
// traced lane rows, and goes when those are dropped (ROADMAP item 10).
type LaneResult struct{}

// CheckLanes declines every batch with an error; Check and Checker check
// stimuli one at a time. It goes with the benchmark's lane rows (ROADMAP
// item 10).
func CheckLanes(*sim.LaneTrace) (*LaneResult, error) {
	return nil, errors.New("sva: lane checking is removed; check each trace with Check")
}
