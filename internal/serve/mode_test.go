package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// calmSource runs a long steady loop: thousands of block dispatches and at
// most a handful of trace builds, so its natural churn sits far below
// stormChurnPerK.
const calmSource = `class Main { static void main() { int i = 0; int s = 0; while (i < 2000) { s = s + i; i = i + 1; } Sys.printlnInt(s); } }`

const calmOutput = "1999000\n"

func mustDo(t *testing.T, s *Service, req Request) *Response {
	t.Helper()
	resp, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Output != calmOutput {
		t.Fatalf("output = %q, want %q", resp.Output, calmOutput)
	}
	return resp
}

// stormService is a service whose runs churn while storm is set: the
// injector inflates a profiled run's construct/retire counters after the
// run, before its release reads them.
func stormService(t *testing.T, workers int, storm *atomic.Bool) *Service {
	return newTestService(t, Config{
		Workers: workers,
		Injector: InjectorFuncs{
			After: func(_ Request, sess *core.Session) {
				if storm.Load() && sess.Graph != nil {
					sess.Counters.TracesBuilt += 10000
					sess.Counters.TracesRetired += 10000
				}
			},
		},
	})
}

// programMode returns the single test program's arm and moves.
func programMode(s *Service) (string, ModeMoves) {
	for _, ps := range s.Stats().PerProgram {
		return ps.Mode, ps.ModeMoves
	}
	return "", ModeMoves{}
}

// TestModeControllerTransitions walks the controller's state machine run by
// run, stale observations included.
func TestModeControllerTransitions(t *testing.T) {
	calm := &stats.Counters{BlockDispatches: 1000, TracesBuilt: stormChurnPerK}
	churny := &stats.Counters{BlockDispatches: 1000, TracesBuilt: stormChurnPerK + 1}
	var c modeController
	c.state.Store(packArm(core.ModeTrace, 0))
	step := func(ran core.Mode, ctr *stats.Counters, want core.Mode) {
		t.Helper()
		if _, to := c.observe(ran, ctr); to != want {
			t.Fatalf("after a %v run: arm %v, want %v", ran, to, want)
		}
	}

	// Two churny runs, then a calm one: the streak restarts.
	step(core.ModeTrace, churny, core.ModeTrace)
	step(core.ModeTrace, churny, core.ModeTrace)
	step(core.ModeProfile, calm, core.ModeTrace)
	step(core.ModeTrace, churny, core.ModeTrace)
	step(core.ModeTrace, churny, core.ModeTrace)
	step(core.ModeProfile, calm, core.ModeTrace)
	// Calm profile runs never deploy; calm trace runs do after armRuns.
	for i := 0; i < 2*armRuns; i++ {
		step(core.ModeProfile, calm, core.ModeTrace)
	}
	for i := 1; i < armRuns; i++ {
		step(core.ModeTrace, calm, core.ModeTrace)
	}
	step(core.ModeTrace, calm, core.ModeTraceDeploy)
	if got := c.mode(core.ModeTrace); got != core.ModeTraceDeploy {
		t.Fatalf("deployed program runs a trace request as %v", got)
	}
	if got := c.mode(core.ModeProfile); got != core.ModeProfile {
		t.Fatalf("deployed program runs a profile request as %v", got)
	}
	// One churny run, deployed or measured, returns it to measurement and
	// counts toward a storm.
	step(core.ModeTraceDeploy, churny, core.ModeTrace)
	step(core.ModeTrace, churny, core.ModeTrace)
	step(core.ModeTrace, churny, core.ModePlain)
	if got := c.mode(core.ModeTrace); got != core.ModePlain {
		t.Fatalf("demoted program runs a trace request as %v", got)
	}
	// A measured run planned before the demotion says nothing.
	step(core.ModeTrace, calm, core.ModePlain)
	// probeEvery demoted runs open a probe, one churny run from demotion.
	stay := func() {
		t.Helper()
		for i := 1; i < probeEvery; i++ {
			step(core.ModePlain, calm, core.ModePlain)
		}
		step(core.ModePlain, calm, core.ModeTrace)
	}
	stay()
	// A demoted run planned before the probe says nothing either.
	step(core.ModePlain, calm, core.ModeTrace)
	step(core.ModeTrace, churny, core.ModePlain)
	stay()
	// A calm probe recovers; the next churny run starts a fresh streak.
	step(core.ModeTrace, calm, core.ModeTrace)
	step(core.ModeTrace, churny, core.ModeTrace)

	var moves ModeMoves
	moves.add(&c)
	if want := (ModeMoves{Plain: 2, Trace: 3, Deploy: 1}); moves != want {
		t.Errorf("moves = %+v, want %+v", moves, want)
	}
}

// TestModeControllerLifecycle drives one program's controller through the
// storm arm with concurrent sessions in flight: measurement, a trip under
// churn, a stay in the plain arm, a calm probe back to measurement, a
// re-trip, and a churny probe straight back to plain. Everything is counted
// in runs. ModeProfile requests keep the program out of deployment.
func TestModeControllerLifecycle(t *testing.T) {
	var storm atomic.Bool
	s := stormService(t, 4, &storm)
	req := Request{Source: calmSource, Mode: core.ModeProfile}

	// Measurement: calm runs run as requested.
	for i := 0; i < armRuns+1; i++ {
		if resp := mustDo(t, s, req); resp.Mode != core.ModeProfile {
			t.Fatalf("calm run %d ran as %v, want profile", i, resp.Mode)
		}
	}
	if mode, _ := programMode(s); mode != "trace" {
		t.Fatalf("arm after calm runs = %q, want trace", mode)
	}

	// Storm: concurrent churny runs trip the controller exactly once.
	storm.Store(true)
	var wg sync.WaitGroup
	var demoted atomic.Int64
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := s.Do(context.Background(), req); err == nil && resp.Mode == core.ModePlain {
				demoted.Add(1)
			}
		}()
	}
	wg.Wait()
	snap := s.Stats()
	if snap.ModeMoves.Plain != 1 || snap.PlainPrograms != 1 {
		t.Fatalf("after storm: plain moves=%d plain programs=%d, want 1/1", snap.ModeMoves.Plain, snap.PlainPrograms)
	}

	// Plain arm: profiled requests run plain with correct results, and stay
	// there after the storm ends until probeEvery runs were demoted.
	storm.Store(false)
	for demoted.Load() < probeEvery {
		if resp := mustDo(t, s, req); resp.Mode != core.ModePlain {
			t.Fatalf("demoted run %d ran as %v, want plain", demoted.Load(), resp.Mode)
		}
		demoted.Add(1)
	}
	if mode, moves := programMode(s); mode != "trace" || moves.Trace != 1 {
		t.Fatalf("after %d demoted runs: arm %q, trace moves %d, want a probe", probeEvery, mode, moves.Trace)
	}

	// Calm probe: measurement resumes.
	if resp := mustDo(t, s, req); resp.Mode != core.ModeProfile {
		t.Fatalf("probe ran as %v, want profile", resp.Mode)
	}
	if resp := mustDo(t, s, req); resp.Mode != core.ModeProfile {
		t.Fatalf("run after a calm probe ran as %v, want profile", resp.Mode)
	}

	// Re-trip, then a churny probe demotes again at once.
	storm.Store(true)
	for i := 0; i < armRuns; i++ {
		mustDo(t, s, req)
	}
	for i := 0; i < probeEvery; i++ {
		if resp := mustDo(t, s, req); resp.Mode != core.ModePlain {
			t.Fatalf("re-tripped run %d ran as %v, want plain", i, resp.Mode)
		}
	}
	if resp := mustDo(t, s, req); resp.Mode != core.ModeProfile {
		t.Fatalf("second probe ran as %v, want profile", resp.Mode)
	}
	if mode, moves := programMode(s); mode != "plain" || moves != (ModeMoves{Plain: 3, Trace: 2}) {
		t.Errorf("after a churny probe: arm %q, moves %+v, want plain and 3 trips (storm, re-trip, probe)", mode, moves)
	}
}

// TestModeControllerDeploys: calm trace requests move the program to
// deployment mode, which the response names, and one churny deployed run
// returns it to measurement. A request for deployment mode is taken as a
// trace request.
func TestModeControllerDeploys(t *testing.T) {
	var storm atomic.Bool
	s := stormService(t, 2, &storm)
	req := Request{Source: calmSource, Mode: core.ModeTrace}

	if resp := mustDo(t, s, Request{Source: calmSource, Mode: core.ModeTraceDeploy}); resp.Mode != core.ModeTrace {
		t.Fatalf("a fresh program's deploy request ran as %v, want trace", resp.Mode)
	}
	for i := 1; i < armRuns; i++ {
		if resp := mustDo(t, s, req); resp.Mode != core.ModeTrace {
			t.Fatalf("calm run %d ran as %v, want trace", i, resp.Mode)
		}
	}
	resp := mustDo(t, s, req)
	if resp.Mode != core.ModeTraceDeploy || resp.Counters.TraceDispatches == 0 {
		t.Fatalf("after %d calm runs: mode %v, %d trace dispatches; want deployed traces", armRuns, resp.Mode, resp.Counters.TraceDispatches)
	}
	if mode, moves := programMode(s); mode != "trace-deploy" || moves != (ModeMoves{Deploy: 1}) {
		t.Fatalf("deployed program reports arm %q, moves %+v", mode, moves)
	}
	if resp := mustDo(t, s, Request{Source: calmSource, Mode: core.ModeProfile}); resp.Mode != core.ModeProfile {
		t.Errorf("deployed program ran a profile request as %v", resp.Mode)
	}

	storm.Store(true)
	if resp := mustDo(t, s, req); resp.Mode != core.ModeTraceDeploy {
		t.Fatalf("churny run ran as %v, want trace-deploy", resp.Mode)
	}
	storm.Store(false)
	if resp := mustDo(t, s, req); resp.Mode != core.ModeTrace {
		t.Fatalf("run after a churny deployed run ran as %v, want trace", resp.Mode)
	}
	if mode, moves := programMode(s); mode != "trace" || moves != (ModeMoves{Trace: 1, Deploy: 1}) {
		t.Errorf("after a churny deployed run: arm %q, moves %+v", mode, moves)
	}
}
