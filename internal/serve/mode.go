package serve

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/stats"
)

const (
	// stormChurnPerK: a run is churny when it builds and retires more than
	// this many traces per 1000 block dispatches. It is the threshold of
	// the churn breaker the controller replaced (tracevmd's -breaker-churn
	// default).
	stormChurnPerK = 8
	// armRuns consecutive runs on one side of stormChurnPerK move a
	// measuring program to another arm: the breaker's trip count
	// (-breaker-after).
	armRuns = 3
	// probeEvery demoted runs end a stay in the plain arm. It replaces the
	// breaker's 30 s cool-down: the benchmark's steady rows serve 12-19
	// requests/s over six programs on 2 vCPUs, 2-3 runs/s per program, so
	// the cool-down lasted 60-90 runs; 64 is the power of two in between.
	probeEvery = 64
)

// modeController is one shard set's mode controller: it picks the mode of
// the set's profiled runs (one set per program and profiler parameters).
// Its three arms are counted in runs, never in time, so a replayed log
// moves it exactly as the recorded traffic did:
//
//   - measurement (core.ModeTrace), where every program starts: the
//     profiler watches every block dispatch, inside traces too.
//   - deployment (core.ModeTraceDeploy): armRuns calm trace runs in a row
//     say the cache has settled, so traces run with one profiler hook
//     each. One churny run returns the program to measurement.
//   - plain (core.ModePlain): armRuns churny runs in a row are a signal
//     storm, so runs skip the profiler. After probeEvery of them the
//     program measures again, one churny run from demotion.
//
// A ModeProfile request follows the storm arm but never deploys. The state
// is one word, the arm in the high half and a signed run count in the low
// half (calm runs up, churny runs down, demoted runs up), moved by
// compare-and-swap, so concurrent releases take no lock.
type modeController struct {
	state atomic.Uint64
	moves [core.ModeTraceDeploy + 1]atomic.Int64 // moves into each arm
}

func packArm(arm core.Mode, n int32) uint64 { return uint64(arm)<<32 | uint64(uint32(n)) }

// arm returns the controller's current arm.
func (c *modeController) arm() core.Mode { return core.Mode(c.state.Load() >> 32) }

// mode is the dispatch mode a profiled request for req runs in now: the arm,
// except that a profile request never deploys. A trace-deploy request is a
// trace request, since deployment is the controller's call.
func (c *modeController) mode(req core.Mode) core.Mode {
	if arm := c.arm(); arm == core.ModePlain || req != core.ModeProfile {
		return arm
	}
	return core.ModeProfile
}

// observe feeds back one finished run that ran in mode ran and returns the
// arm it moved from and to (equal when it stayed). A run planned before the
// arm last moved counts only where it still says something.
//
//tracevm:hotpath
func (c *modeController) observe(ran core.Mode, ctr *stats.Counters) (from, to core.Mode) {
	churny := churnPerK(ctr) > stormChurnPerK
	for {
		w := c.state.Load()
		from, n := core.Mode(w>>32), int32(uint32(w))
		to = from
		switch {
		case ran == core.ModePlain:
			if from != core.ModePlain {
				return from, from
			}
			if n++; n >= probeEvery {
				to, n = core.ModeTrace, 1-armRuns
			}
		case from == core.ModePlain:
			return from, from
		case churny:
			if n = min(n, 0) - 1; from == core.ModeTraceDeploy {
				to = core.ModeTrace
			} else if n <= -armRuns {
				to, n = core.ModePlain, 0
			}
		case from == core.ModeTraceDeploy:
			return from, from
		case ran == core.ModeTrace:
			if n = max(n, 0) + 1; n >= armRuns {
				to, n = core.ModeTraceDeploy, 0
			}
		default:
			n = max(n, 0) // a calm profile run ends a churny streak, never deploys
		}
		if c.state.CompareAndSwap(w, packArm(to, n)) {
			if to != from {
				c.moves[to].Add(1)
			}
			return from, to
		}
	}
}

// churnPerK is one run's churn: trace construct+retire events per 1000
// block dispatches.
func churnPerK(ctr *stats.Counters) float64 {
	return 1000 * float64(ctr.TracesBuilt+ctr.TracesRetired) / float64(max(ctr.BlockDispatches, 1))
}

// ModeMoves counts mode-controller transitions into each arm.
type ModeMoves struct{ Plain, Trace, Deploy int64 }

func (m *ModeMoves) add(c *modeController) {
	m.Plain += c.moves[core.ModePlain].Load()
	m.Trace += c.moves[core.ModeTrace].Load()
	m.Deploy += c.moves[core.ModeTraceDeploy].Load()
}
