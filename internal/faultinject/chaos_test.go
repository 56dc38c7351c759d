package faultinject

import (
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/serve"
)

// loopSource is a steady 2000-iteration loop: enough block dispatches for
// the profiler to converge and build loop traces, with a known output.
const loopSource = `class Main { static void main() { int i = 0; int s = 0; while (i < 2000) { s = s + i; i = i + 1; } Sys.printlnInt(s); } }`

const loopOutput = "1999000\n"

func newService(t *testing.T, cfg serve.Config) *serve.Service {
	t.Helper()
	s := serve.New(cfg)
	t.Cleanup(s.Close)
	return s
}

// TestStormRespectsBudgetsAndInvariants replays the head of the committed
// mixed-tenant traffic fixture (internal/replay/testdata) into a service
// under an injected signal storm with tight cache budgets: recorded
// production-shaped traffic, not a synthetic loop, must leave the cache
// structurally sound and inside its block budget after every injection, and
// the pressure must show up as evictions in the counters. The head (not the
// full 54-record storm) bounds the race-detector runtime of the chaos job.
func TestStormRespectsBudgetsAndInvariants(t *testing.T) {
	storm := &Storm{Seed: 7}
	storm.SetEnabled(true)
	const maxBlocks = 48
	s := newService(t, serve.Config{
		Workers:    2,
		QueueDepth: 8,
		TraceCache: core.Config{MaxTraces: 4, MaxCachedBlocks: maxBlocks},
		Injector:   &Faults{Storm: storm},
	})
	saveArtifactsOnFailure(t, s)

	full, err := replay.Load(filepath.Join("..", "replay", "testdata", "storm-mixed"+replay.FileExt))
	if err != nil {
		t.Fatalf("loading committed fixture: %v", err)
	}
	head := &replay.Log{Records: full.Records[:16]}
	if len(head.Programs()) < 4 {
		t.Fatalf("fixture head covers %d programs, want a mixed-tenant slice", len(head.Programs()))
	}

	var overBudget atomic.Int64
	res, err := replay.Play(context.Background(), head,
		// As-recorded pacing keeps the tenants overlapping the way they were
		// captured; in-flight stays below workers+queue so backpressure never
		// refuses a recorded request.
		replay.PlayOptions{Scale: 1, MaxInFlight: 4},
		func(ctx context.Context, rec replay.Record) error {
			resp, derr := s.Do(ctx, serve.RequestFromRecord(rec))
			if derr != nil {
				return derr
			}
			if resp.CachedBlocks > maxBlocks {
				overBudget.Add(1)
			}
			return nil
		})
	if err != nil {
		t.Fatalf("replaying fixture: %v", err)
	}
	if res.Failed > 0 {
		t.Fatalf("%d recorded requests failed under storm (first: %v)", res.Failed, res.Errors)
	}
	if n := overBudget.Load(); n != 0 {
		t.Fatalf("%d runs exceeded the %d-block cache budget", n, maxBlocks)
	}
	if v := storm.Violations(); v != 0 {
		t.Fatalf("%d invariant violations under storm: %v", v, storm.Err())
	}
	snap := s.Stats()
	if snap.Global.TracesEvicted == 0 || snap.Global.BudgetPressure == 0 {
		t.Errorf("storm caused no eviction pressure: evicted=%d pressure=%d",
			snap.Global.TracesEvicted, snap.Global.BudgetPressure)
	}
}

// TestStormBreakerRecovery is the acceptance chaos scenario: under an
// injected signal storm the cache stays within budget, the churn breaker
// trips (visible in the service metrics), demoted block-dispatch results
// stay correct, and once the storm ends the program returns to traced
// execution.
func TestStormBreakerRecovery(t *testing.T) {
	storm := &Storm{Seed: 99}
	storm.SetEnabled(true)
	clk := NewClock(time.Unix(1_000_000, 0))
	const cooldown = time.Minute
	const maxBlocks = 48
	s := newService(t, serve.Config{
		Workers:    2,
		TraceCache: core.Config{MaxTraces: 4, MaxCachedBlocks: maxBlocks},
		Breaker:    serve.BreakerConfig{ChurnPerK: 8, TripAfter: 2, Cooldown: cooldown},
		Clock:      clk.Now,
		Injector:   &Faults{Storm: storm},
	})
	saveArtifactsOnFailure(t, s)
	req := serve.Request{Source: loopSource, Mode: core.ModeTrace}

	// Phase 1: the storm rages. Within a few runs the breaker must trip;
	// every result — traced or demoted — must stay correct.
	tripped := false
	for i := 0; i < 10 && !tripped; i++ {
		resp, err := s.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("storm run %d: %v", i, err)
		}
		if resp.Output != loopOutput {
			t.Fatalf("storm run %d output = %q, want %q", i, resp.Output, loopOutput)
		}
		if resp.CachedBlocks > maxBlocks {
			t.Fatalf("storm run %d: cache over budget: %d > %d", i, resp.CachedBlocks, maxBlocks)
		}
		tripped = s.Stats().BreakerTrips > 0
	}
	if !tripped {
		t.Fatal("breaker never tripped under the signal storm")
	}
	if v := storm.Violations(); v != 0 {
		t.Fatalf("%d cache invariant violations: %v", v, storm.Err())
	}
	snap := s.Stats()
	if snap.Global.TracesEvicted == 0 {
		t.Error("no evictions despite storm under budget")
	}

	// Phase 2: the breaker is open — runs demote to plain dispatch and
	// still compute the right answer.
	resp, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Demoted || resp.Mode != core.ModePlain {
		t.Fatalf("open breaker: demoted=%v mode=%v", resp.Demoted, resp.Mode)
	}
	if resp.Output != loopOutput {
		t.Fatalf("demoted output = %q, want %q", resp.Output, loopOutput)
	}

	// Phase 3: the storm ends and the cool-down passes. The half-open
	// probe runs traced, measures calm churn, and the breaker closes —
	// the program is back to traced execution.
	storm.SetEnabled(false)
	clk.Advance(cooldown + time.Second)
	probe, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if probe.Demoted || probe.Mode != core.ModeTrace {
		t.Fatalf("probe: demoted=%v mode=%v, want traced", probe.Demoted, probe.Mode)
	}
	after, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if after.Demoted {
		t.Fatal("breaker still open after a calm probe")
	}
	if after.NumTraces == 0 || after.Counters.TraceDispatches == 0 {
		t.Errorf("no traced execution after recovery: traces=%d dispatches=%d",
			after.NumTraces, after.Counters.TraceDispatches)
	}
	if after.Output != loopOutput {
		t.Errorf("post-recovery output = %q, want %q", after.Output, loopOutput)
	}
}

// TestStormWithCompiledTraces runs the signal storm against a cache that
// compiles hot traces: synthetic storm signals churn the cache (retire,
// rebuild, evict) while real loop traces promote to tier 2 and execute as
// superinstructions. The compiled tier must ride the churn without
// corrupting anything — outputs stay correct, the storm's structural
// invariants hold, and tier-2 execution demonstrably happened. Storm
// signals name synthetic blocks outside the program's CFG; traces built
// from them must fail compilation safely (the compiler bails, the trace is
// barred) rather than crash the service.
func TestStormWithCompiledTraces(t *testing.T) {
	storm := &Storm{Seed: 21}
	storm.SetEnabled(true)
	const maxBlocks = 48
	s := newService(t, serve.Config{
		Workers: 2,
		TraceCache: core.Config{
			MaxTraces: 4, MaxCachedBlocks: maxBlocks,
			CompileTraces: true, TierUpDispatches: 2, TierDownGuardExits: 2,
		},
		Injector: &Faults{Storm: storm},
	})
	saveArtifactsOnFailure(t, s)
	req := serve.Request{Source: loopSource, Mode: core.ModeTrace}
	for i := 0; i < 8; i++ {
		resp, err := s.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("storm run %d: %v", i, err)
		}
		if resp.Output != loopOutput {
			t.Fatalf("storm run %d output = %q, want %q", i, resp.Output, loopOutput)
		}
		if resp.CachedBlocks > maxBlocks {
			t.Fatalf("storm run %d: cache over budget: %d > %d", i, resp.CachedBlocks, maxBlocks)
		}
	}
	if v := storm.Violations(); v != 0 {
		t.Fatalf("%d cache invariant violations with compiled traces: %v", v, storm.Err())
	}
	snap := s.Stats()
	if snap.Global.TracesCompiled == 0 || snap.Global.CompiledDispatches == 0 {
		t.Errorf("tier 2 never engaged under storm: compiled=%d dispatches=%d",
			snap.Global.TracesCompiled, snap.Global.CompiledDispatches)
	}
}

// TestPanicQuarantine crashes workers with the panic injector until the
// service quarantines the program, leaving other programs unharmed.
func TestPanicQuarantine(t *testing.T) {
	crash := NewPanic(-1, func(req serve.Request) bool { return req.Workload == "compress" })
	s := newService(t, serve.Config{
		Workers:         2,
		QuarantineAfter: 2,
		Injector:        &Faults{Panic: crash},
	})
	for i := 0; i < 2; i++ {
		_, err := s.Do(context.Background(), serve.Request{Workload: "compress"})
		if err == nil || errors.Is(err, serve.ErrQuarantined) {
			t.Fatalf("crash %d: err = %v, want raw panic error", i, err)
		}
	}
	if _, err := s.Do(context.Background(), serve.Request{Workload: "compress"}); !errors.Is(err, serve.ErrQuarantined) {
		t.Fatalf("err = %v, want ErrQuarantined", err)
	}
	if crash.Fired() != 2 {
		t.Errorf("injector fired %d times, want 2 (quarantine must reject before execution)", crash.Fired())
	}
	// A healthy program on the same service still runs.
	resp, err := s.Do(context.Background(), serve.Request{Source: loopSource})
	if err != nil || resp.Output != loopOutput {
		t.Fatalf("healthy program: %v, %+v", err, resp)
	}
	snap := s.Stats()
	if snap.QuarantinedPrograms != 1 || snap.Panics != 2 {
		t.Errorf("quarantinedPrograms=%d panics=%d, want 1/2", snap.QuarantinedPrograms, snap.Panics)
	}
}

// TestDelayedDispatchHitsDeadline slows every block dispatch down so a
// modest program blows its deadline, then checks the service recovered.
func TestDelayedDispatchHitsDeadline(t *testing.T) {
	delay := &Delay{Every: 64, Sleep: 2 * time.Millisecond}
	s := newService(t, serve.Config{
		Workers:  1,
		Injector: &Faults{Delay: delay},
	})
	_, err := s.Do(context.Background(), serve.Request{
		Source:  loopSource,
		Mode:    core.ModeProfile,
		Timeout: 50 * time.Millisecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if snap := s.Stats(); snap.TimedOut != 1 {
		t.Errorf("timedOut = %d, want 1", snap.TimedOut)
	}
}
