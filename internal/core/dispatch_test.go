package core_test

import (
	"runtime"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/jasm"
	"repro/internal/profile"
	"repro/internal/vm"
)

// convergeParams keeps the profiler deterministic and fast to converge, so
// traces form early and profiler noise does not decide when.
var convergeParams = profile.Params{StartDelay: 64, Threshold: 0.97, DecayInterval: 256}

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

// testWriter is a minimal buffer (bytes.Buffer would do; this avoids pulling
// it into scenarios that run hundreds of times).
type testWriter struct{ b []byte }

func (w *testWriter) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }
func (w *testWriter) String() string              { return string(w.b) }

// TestCompiledDispatchZeroAlloc pins trace execution at zero heap
// allocations per dispatch, as the twin of the profiler's warmed fast-path pin: once
// the loop trace is built and the machine's working set (frame, operand
// stack, profiler arenas) is warm, the steady run region — segment
// execution, trace accounting, and the per-trace-dispatch profiler hook —
// must not allocate at all.
//
// The measurement rides the WrapHook seam: in deploy mode the hook fires
// once per trace dispatch, so two hook invocations bracket a window of
// tens of thousands of trace dispatches, and runtime.MemStats.Mallocs
// across that window counts every heap allocation the steady state makes.
//
// The test and its "unfused" case keep the names they had when a second,
// fused trace form had a case of its own; the unfused program is now the
// only form a trace runs in.
func TestCompiledDispatchZeroAlloc(t *testing.T) {
	// Hook invocations before the window opens (profiler convergence, trace
	// build, stack growth all happen here) and the window's width.
	// stormProgram's loop runs 30000 iterations (~15k hook calls once the
	// trace covers multiple blocks per dispatch), so warm+window fits with
	// margin.
	const warm, window = 2000, 10000

	t.Run("unfused", func(t *testing.T) {
		var sess *core.Session
		var m0, m1 runtime.MemStats
		var calls int64
		openAt, closeAt := int64(-1), int64(-1) // traces entered at the window edges
		wrap := func(h vm.DispatchHook) vm.DispatchHook {
			return vm.HookFunc(func(from, to cfg.BlockID) {
				calls++
				switch calls {
				case warm:
					runtime.ReadMemStats(&m0)
					openAt = sess.Counters.TracesEntered
				case warm + window:
					runtime.ReadMemStats(&m1)
					closeAt = sess.Counters.TracesEntered
				}
				if h != nil {
					h.OnDispatch(from, to)
				}
			})
		}

		s, out := buildSession(t, stormProgram, core.SessionOptions{
			Mode:     core.ModeTraceDeploy,
			Params:   convergeParams,
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
			t.Fatalf("no trace dispatches inside the window (open %d, close %d); the pin is vacuous", openAt, closeAt)
		}
		if mallocs := m1.Mallocs - m0.Mallocs; mallocs != 0 {
			t.Errorf("steady state allocated %d times over %d trace dispatches, want 0", mallocs, served)
		}
	})
}

// TestMisdirectedTraceGuardExits drives a deterministic guard-exit storm:
// the misdirect injector teaches the profiler a path the program never
// takes, the cache builds a trace along it, and real execution side-exits
// out of that trace on every entry. The program output must be intact, and
// the exits must be charged, almost all of them, to the guard after the
// misdirected branch (the loop's own exit accounts for the rest).
func TestMisdirectedTraceGuardExits(t *testing.T) {
	prog, err := jasm.Assemble(stormProgram)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	// The never-taken inner branch is the unique conditional whose taken
	// target is a plain goto block.
	var mis *faultinject.Misdirect
	for _, b := range pcfg.Blocks {
		if b.Kind == bytecode.FlowCond {
			if tk := pcfg.Block(b.Taken); tk != nil && tk.Kind == bytecode.FlowGoto {
				mis = &faultinject.Misdirect{From: b.ID, To: b.Taken}
			}
		}
	}
	if mis == nil {
		t.Fatal("stormProgram has no never-taken conditional to misdirect")
	}
	out := &testWriter{}
	s, err := core.NewSession(prog, pcfg, core.SessionOptions{
		Mode:     core.ModeTrace,
		Params:   convergeParams,
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
	var storm, other int64
	for _, tr := range s.Cache.Traces() {
		for i, n := range tr.SideExits {
			if tr.Blocks[i] == mis.From {
				storm += n
			} else {
				other += n
			}
		}
	}
	if storm == 0 || storm <= other {
		t.Errorf("%d side exits after the misdirected branch, %d elsewhere: the storm did not land on its guard", storm, other)
	}
}
