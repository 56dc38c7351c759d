package core_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/analysis/valueflow"
	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/jasm"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/vm"
)

// tierParams keeps the profiler deterministic and fast to converge so the
// tiering thresholds, not profiler noise, decide when transitions happen.
var tierParams = profile.Params{StartDelay: 64, Threshold: 0.97, DecayInterval: 256}

// TestTierPromotionAtThreshold: with CompileTraces on, a hot trace must stay
// at tier 1 for exactly its TierUpDispatches dispatches and then promote,
// with the compiled form serving subsequent dispatches — and the program
// output unchanged.
func TestTierPromotionAtThreshold(t *testing.T) {
	const tierUp = 8
	s, out := buildSession(t, loopProgram, core.SessionOptions{
		Mode:   core.ModeTraceDeploy,
		Params: tierParams,
		Config: core.Config{CompileTraces: true, TierUpDispatches: tierUp},
	})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.String() != "49995000\n" {
		t.Errorf("output = %q, want %q", out.String(), "49995000\n")
	}
	c := s.Counters
	if c.TracesCompiled == 0 {
		t.Fatal("no trace was ever promoted to tier 2")
	}
	if c.CompiledDispatches == 0 {
		t.Fatal("promotion recorded but no dispatch ran the compiled form")
	}
	if c.TierDowns != 0 {
		t.Errorf("a perfectly regular loop caused %d tier-downs", c.TierDowns)
	}
	tier2 := 0
	for _, tr := range s.Cache.Traces() {
		if tr.Tier() != 2 {
			continue
		}
		tier2++
		if tr.CompiledEntered == 0 {
			t.Errorf("trace %d is tier 2 but was never entered compiled", tr.ID)
		}
		// Promotion fires when Entered reaches the threshold, so the trace
		// must have absorbed at least tierUp tier-1 dispatches first.
		if warmup := tr.Entered - tr.CompiledEntered; warmup < tierUp {
			t.Errorf("trace %d promoted after %d tier-1 dispatches, want >= %d",
				tr.ID, warmup, tierUp)
		}
	}
	if tier2 == 0 {
		t.Error("counters show a promotion but no cached trace is at tier 2")
	}
}

// TestTierPromotionDisabledByDefault: without CompileTraces the whole tier-2
// surface must stay dark — no thresholds stamped, no compilations, no
// compiled dispatches.
func TestTierPromotionDisabledByDefault(t *testing.T) {
	s, _ := buildSession(t, loopProgram, core.SessionOptions{
		Mode:   core.ModeTraceDeploy,
		Params: tierParams,
	})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	c := s.Counters
	if c.TracesCompiled != 0 || c.CompiledDispatches != 0 || c.TierDowns != 0 {
		t.Errorf("tiering activity without CompileTraces: compiled=%d dispatches=%d downs=%d",
			c.TracesCompiled, c.CompiledDispatches, c.TierDowns)
	}
	for _, tr := range s.Cache.Traces() {
		if tr.TierUpAt != 0 || tr.Tier() != 1 {
			t.Errorf("trace %d carries tiering state: tierUpAt=%d tier=%d", tr.ID, tr.TierUpAt, tr.Tier())
		}
	}
}

// stormProgram is a counting loop with an inner branch that is never taken:
// the block the misdirect injector lies about. Its output is the final
// counter value.
const stormProgram = `
.class Main
.method static main ( ) void
.locals 1
    iconst 0
    istore 0
loop:
    iload 0
    iconst 30000
    if_icmpge done
    iload 0
    iconst 1000000
    if_icmpge cold      ; never taken: the misdirected branch
    iinc 0 1
    goto loop
cold:
    iinc 0 2
    goto loop
done:
    iload 0
    invokestatic Main.print
    return
.end
.native static print ( int ) void println_int
.end
.entry Main main
`

const stormOutput = "30000\n"

// misdirectNeverTaken finds stormProgram's never-taken inner branch — the
// unique conditional whose taken target is a plain goto block — and returns
// an injector that reports every dispatch leaving it as going there.
func misdirectNeverTaken(t *testing.T, pcfg *cfg.ProgramCFG) *faultinject.Misdirect {
	t.Helper()
	for _, b := range pcfg.Blocks {
		if b.Kind == bytecode.FlowCond {
			if tk := pcfg.Block(b.Taken); tk != nil && tk.Kind == bytecode.FlowGoto {
				return &faultinject.Misdirect{From: b.ID, To: b.Taken}
			}
		}
	}
	t.Fatal("stormProgram has no never-taken conditional to misdirect")
	return nil
}

// TestTierDemotionAfterGuardExitStorm drives the full promotion/demotion
// cycle with an injected fault: the misdirect injector teaches the profiler
// a path the program never takes, the cache builds and (after TierUpDispatches
// entries) compiles a trace along it, real execution guard-exits out of the
// compiled form on every entry, and after TierDownGuardExits exits the
// policy must discard the compiled form, bar re-promotion, and leave the
// trace serving tier 1 — with the program output intact throughout.
func TestTierDemotionAfterGuardExitStorm(t *testing.T) {
	prog, err := jasm.Assemble(stormProgram)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	mis := misdirectNeverTaken(t, pcfg)

	const tierUp, tierDown = 8, 4
	out := &testWriter{}
	s, err := core.NewSession(prog, pcfg, core.SessionOptions{
		Mode:     core.ModeTrace,
		Params:   tierParams,
		Config:   core.Config{CompileTraces: true, TierUpDispatches: tierUp, TierDownGuardExits: tierDown},
		Out:      out,
		WrapHook: mis.Wrap,
	})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.String() != stormOutput {
		t.Errorf("output = %q, want %q", out.String(), stormOutput)
	}
	if mis.Lies() == 0 {
		t.Fatal("the misdirect injector never fired; the storm was not injected")
	}
	c := s.Counters
	if c.TracesCompiled == 0 {
		t.Fatal("the misdirected trace was never promoted")
	}
	if c.TierDowns == 0 {
		t.Fatalf("no tier-down despite a permanent guard-exit storm (compiled dispatches: %d)",
			c.CompiledDispatches)
	}
	demoted := 0
	for _, tr := range s.Cache.Traces() {
		if !tr.CompileBarred || tr.Compiled != nil {
			continue
		}
		if tr.CompiledGuardExits > 0 {
			demoted++
			if tr.CompiledGuardExits < tierDown {
				t.Errorf("trace %d demoted after %d guard exits, want >= %d",
					tr.ID, tr.CompiledGuardExits, tierDown)
			}
		}
	}
	if demoted == 0 {
		t.Error("counters show a tier-down but no cached trace is demoted and barred")
	}
}

// TestTierDeoptStateEquivalence is the state-equivalence contract: a run on
// fused programs must produce exactly the counters of the run on unfused
// ones — every field of stats.Counters identical except the three tiered
// ones — and byte-identical output. It covers the happy path, both hook
// fidelities, value-flow-assisted compilation, the demotion storm (where
// every fused dispatch takes the guard exit), and the executor's checked
// mode: a step budget that runs out and a host interrupt that arrives inside
// a trace must trap at the same PC, after the same work, in either form.
func TestTierDeoptStateEquivalence(t *testing.T) {
	type scenario struct {
		name        string
		src, want   string
		mode        core.Mode
		facts       bool
		misdirect   bool
		maxSteps    int64       // step budget; the run must end in wantTrap
		interruptAt int64       // hook call that raises the interrupt flag
		wantTrap    vm.TrapKind // TrapNone: the run completes
	}
	scenarios := []scenario{
		{name: "deploy-loop", src: loopProgram, want: "49995000\n", mode: core.ModeTraceDeploy},
		{name: "measure-loop", src: loopProgram, want: "49995000\n", mode: core.ModeTrace},
		{name: "deploy-loop-facts", src: loopProgram, want: "49995000\n", mode: core.ModeTraceDeploy, facts: true},
		{name: "guard-exit-storm", src: stormProgram, want: stormOutput, mode: core.ModeTrace, misdirect: true},
		{name: "step-limit", src: loopProgram, mode: core.ModeTraceDeploy, maxSteps: 40_000, wantTrap: vm.TrapStepLimit},
		{name: "interrupt", src: loopProgram, mode: core.ModeTrace, interruptAt: 20_000, wantTrap: vm.TrapInterrupted},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			run := func(compile bool) (stats.Counters, string, string) {
				prog, err := jasm.Assemble(sc.src)
				if err != nil {
					t.Fatalf("assemble: %v", err)
				}
				pcfg, err := cfg.BuildProgram(prog)
				if err != nil {
					t.Fatalf("cfg: %v", err)
				}
				out := &testWriter{}
				opts := core.SessionOptions{
					Mode:     sc.mode,
					Params:   tierParams,
					Config:   core.Config{CompileTraces: compile, TierUpDispatches: 4, TierDownGuardExits: 8},
					Out:      out,
					MaxSteps: sc.maxSteps,
				}
				if sc.facts {
					opts.Facts = valueflow.Compute(pcfg)
				}
				if sc.misdirect {
					opts.WrapHook = misdirectNeverTaken(t, pcfg).Wrap
				}
				if sc.interruptAt > 0 {
					var flag atomic.Bool
					var calls int64
					opts.Interrupt = &flag
					opts.WrapHook = func(h vm.DispatchHook) vm.DispatchHook {
						return vm.HookFunc(func(from, to cfg.BlockID) {
							if calls++; calls == sc.interruptAt {
								flag.Store(true)
							}
							h.OnDispatch(from, to)
						})
					}
				}
				s, err := core.NewSession(prog, pcfg, opts)
				if err != nil {
					t.Fatalf("session: %v", err)
				}
				trap := ""
				if err := s.Run(); err != nil {
					if tr, ok := vm.AsTrap(err); !ok || tr.Kind != sc.wantTrap {
						t.Fatalf("run (compile=%v): %v", compile, err)
					}
					trap = err.Error() // kind, detail, method and PC
				} else if sc.wantTrap != vm.TrapNone {
					t.Fatalf("run (compile=%v) completed, want trap %v", compile, sc.wantTrap)
				}
				return s.Counters.Snapshot(), out.String(), trap
			}
			base, baseOut, baseTrap := run(false)
			tiered, tieredOut, tieredTrap := run(true)
			if tieredOut != baseOut || baseOut != sc.want {
				t.Errorf("program output: unfused %q, fused %q, want %q", baseOut, tieredOut, sc.want)
			}
			if tieredTrap != baseTrap {
				t.Errorf("trap point differs between forms:\n unfused: %s\n fused:   %s", baseTrap, tieredTrap)
			}
			if tiered.TracesCompiled == 0 || tiered.CompiledDispatches == 0 {
				t.Fatalf("tier-2 run never engaged (compiled=%d dispatches=%d); equivalence check is vacuous",
					tiered.TracesCompiled, tiered.CompiledDispatches)
			}
			tiered.TracesCompiled, tiered.TierDowns, tiered.CompiledDispatches = 0, 0, 0
			if base != tiered {
				t.Errorf("counters diverge between tiers:\n tier1: %+v\n tier2: %+v", base, tiered)
			}
		})
	}
}

// TestProbeSeesFusedSegments: a probe does not keep traces off their fused
// programs — the engine used to promote the trace, count and announce the
// compilation, and then never run it. The probe fires at every segment entry
// of either form, so it observes the same block sequence, with the same
// locals, on fused programs as on unfused ones.
func TestProbeSeesFusedSegments(t *testing.T) {
	type entry struct {
		block cfg.BlockID
		i     int64 // main's loop counter, or add's first argument
	}
	run := func(compile bool) ([]entry, stats.Counters) {
		var seen []entry
		s, _ := buildSession(t, loopProgram, core.SessionOptions{
			Mode:   core.ModeTraceDeploy,
			Params: tierParams,
			Config: core.Config{CompileTraces: compile, TierUpDispatches: 4},
			Probe: func(b *cfg.Block, locals, _ []vm.Value) {
				seen = append(seen, entry{b.ID, locals[0].N})
			},
		})
		if err := s.Run(); err != nil {
			t.Fatalf("run (compile=%v): %v", compile, err)
		}
		return seen, s.Counters.Snapshot()
	}
	unfused, _ := run(false)
	fused, c := run(true)
	if c.CompiledDispatches == 0 {
		t.Fatalf("with a probe attached %d traces were compiled but none dispatched fused", c.TracesCompiled)
	}
	if int64(len(fused)) != c.BlockDispatches {
		t.Errorf("probe saw %d block entries, engine dispatched %d blocks", len(fused), c.BlockDispatches)
	}
	if len(fused) != len(unfused) {
		t.Fatalf("probe saw %d entries on fused programs, %d on unfused", len(fused), len(unfused))
	}
	for i := range fused {
		if fused[i] != unfused[i] {
			t.Fatalf("entry %d: fused %+v, unfused %+v", i, fused[i], unfused[i])
		}
	}
}

// TestTierDemotionStopsRePromotion: once demoted, a trace must never flap
// back to tier 2 — the bar holds for the rest of its life.
func TestTierDemotionStopsRePromotion(t *testing.T) {
	prog, err := jasm.Assemble(stormProgram)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	mis := misdirectNeverTaken(t, pcfg)
	s, err := core.NewSession(prog, pcfg, core.SessionOptions{
		Mode:     core.ModeTrace,
		Params:   tierParams,
		Config:   core.Config{CompileTraces: true, TierUpDispatches: 4, TierDownGuardExits: 2},
		Out:      &testWriter{},
		WrapHook: mis.Wrap,
	})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	c := s.Counters
	if c.TierDowns == 0 {
		t.Fatal("storm caused no demotion; nothing to check")
	}
	for _, tr := range s.Cache.Traces() {
		if tr.CompileBarred && tr.Compiled != nil {
			t.Errorf("trace %d was re-promoted after demotion", tr.ID)
		}
	}
	// A barred trace's compiled dispatches stop at the demotion point: every
	// entry after the storm is tier 1 again.
	for _, tr := range s.Cache.Traces() {
		if tr.CompileBarred && tr.TierDownAt > 0 && tr.CompiledGuardExits > tr.TierDownAt {
			t.Errorf("trace %d kept guard-exiting compiled after demotion (%d exits, threshold %d)",
				tr.ID, tr.CompiledGuardExits, tr.TierDownAt)
		}
	}
}

// testWriter is a minimal buffer (bytes.Buffer would do; this avoids pulling
// it into scenarios that run hundreds of times).
type testWriter struct{ b []byte }

func (w *testWriter) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }
func (w *testWriter) String() string              { return string(w.b) }
