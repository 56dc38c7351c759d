package core_test

import (
	"runtime"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/vm"
)

// dispatchFunc adapts a function to vm.DispatchHook for hook wrapping.
type dispatchFunc func(from, to cfg.BlockID)

func (f dispatchFunc) OnDispatch(from, to cfg.BlockID) { f(from, to) }

// TestCompiledDispatchZeroAlloc pins trace execution at zero heap
// allocations per dispatch, in both forms the one executor runs — the
// unfused program every trace starts on and the fused one it is promoted to
// — as the twin of the profiler's warmed fast-path pin: once the loop trace
// is built (and, in the fused leg, promoted) and the machine's working set
// (frame, operand stack, profiler arenas) is warm, the steady run region —
// segment execution, trace accounting, and the per-trace-dispatch profiler
// hook — must not allocate at all.
//
// The measurement rides the WrapHook seam: in deploy mode the hook fires
// once per trace dispatch, so two hook invocations bracket a window of
// tens of thousands of trace dispatches, and runtime.MemStats.Mallocs
// across that window counts every heap allocation the steady state makes.
func TestCompiledDispatchZeroAlloc(t *testing.T) {
	// Hook invocations before the window opens (profiler convergence, trace
	// build, tier-up, stack growth all happen here) and the window's width.
	// stormProgram's loop runs 30000 iterations (~15k hook calls once the
	// trace covers multiple blocks per dispatch), so warm+window fits with
	// margin.
	const warm, window = 2000, 10000

	for _, leg := range []struct {
		name   string
		config core.Config
		// served reads the count of dispatches the leg is about: those of
		// fused programs, or (unfused leg) of traces at all.
		served func(*stats.Counters) int64
	}{
		{"unfused", core.Config{}, func(c *stats.Counters) int64 { return c.TracesEntered }},
		{"fused", core.Config{CompileTraces: true, TierUpDispatches: 4}, func(c *stats.Counters) int64 { return c.CompiledDispatches }},
	} {
		t.Run(leg.name, func(t *testing.T) {
			var sess *core.Session
			var m0, m1 runtime.MemStats
			var calls int64
			openAt, closeAt := int64(-1), int64(-1) // served dispatches at the window edges
			wrap := func(h vm.DispatchHook) vm.DispatchHook {
				return dispatchFunc(func(from, to cfg.BlockID) {
					calls++
					switch calls {
					case warm:
						runtime.ReadMemStats(&m0)
						openAt = leg.served(sess.Counters)
					case warm + window:
						runtime.ReadMemStats(&m1)
						closeAt = leg.served(sess.Counters)
					}
					if h != nil {
						h.OnDispatch(from, to)
					}
				})
			}

			s, out := buildSession(t, stormProgram, core.SessionOptions{
				Mode:     core.ModeTraceDeploy,
				Params:   tierParams,
				Config:   leg.config,
				WrapHook: wrap,
			})
			sess = s
			if err := s.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}
			if out.String() != stormOutput {
				t.Errorf("output = %q, want %q", out.String(), stormOutput)
			}
			if closeAt < 0 {
				t.Fatalf("run made only %d hook calls; the %d-call window never closed", calls, warm+window)
			}
			served := closeAt - openAt
			if served <= 0 {
				t.Fatalf("no %s dispatches inside the window (open %d, close %d); the pin is vacuous", leg.name, openAt, closeAt)
			}
			if mallocs := m1.Mallocs - m0.Mallocs; mallocs != 0 {
				t.Errorf("%s steady state allocated %d times over %d dispatches, want 0", leg.name, mallocs, served)
			}
		})
	}
}
