package harness

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
)

// profiledRunAllocs is heap allocations per block dispatch over one
// profiled, 5 000 000-step run of each workload, as measured when this test
// was written. Allocation counts are deterministic, so the run's drift from
// these figures is a code change, not machine noise.
var profiledRunAllocs = map[string]float64{
	"compress":  0.00226,
	"javac":     0.03015,
	"raytrace":  0.02958,
	"mpegaudio": 0.00155,
	"soot":      0.04843,
	"scimark":   0.00245,
}

// TestProfiledRunAllocsPerDispatch bounds heap allocations per block
// dispatch over a whole profiled run: VM frame churn plus BCG node and edge
// creation during warm-up. Session construction is excluded. Each ceiling
// allows 10% growth over the recorded figure plus 0.005 allocations per
// dispatch, which also absorbs the race detector's extra allocations. The
// warmed hook's own zero-allocation fast path is pinned separately by
// profile.TestDispatchFastPathZeroAllocs.
func TestProfiledRunAllocsPerDispatch(t *testing.T) {
	s := NewSuite()
	s.MaxSteps = 5_000_000
	for _, name := range s.Workloads {
		recorded, ok := profiledRunAllocs[name]
		if !ok {
			t.Errorf("%s: no recorded allocation figure", name)
			continue
		}
		c, err := s.compileWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := core.NewSession(c.prog, c.cfg, core.SessionOptions{
			Mode:     core.ModeProfile,
			Params:   profile.Params{StartDelay: DefaultDelay, Threshold: DefaultThreshold, DecayInterval: 256},
			MaxSteps: s.MaxSteps,
		})
		if err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := sess.Run(); err != nil && !stepLimited(err) {
			t.Fatalf("%s: %v", name, err)
		}
		runtime.ReadMemStats(&m1)
		dispatches := sess.Counters.BlockDispatches
		if dispatches == 0 {
			t.Fatalf("%s: no block dispatches", name)
		}
		got := float64(m1.Mallocs-m0.Mallocs) / float64(dispatches)
		if ceiling := recorded*1.1 + 0.005; got > ceiling {
			t.Errorf("%s: %.5f allocs/dispatch exceeds %.5f (recorded %.5f)", name, got, ceiling, recorded)
		} else {
			t.Logf("%s: %.5f allocs/dispatch (ceiling %.5f)", name, got, ceiling)
		}
	}
}
