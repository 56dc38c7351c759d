package core_test

import (
	"bytes"

	"repro/internal/analysis"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/jasm"
	"repro/internal/profile"
	"repro/internal/vm"
)

// loopProgram sums 0..n-1 through a static call inside a loop, printing the
// result: enough control flow to exercise blocks, calls, branches, and the
// profiler/trace pipeline end to end.
const loopProgram = `
.class Main
.method static add ( int int ) int
    iload 0
    iload 1
    iadd
    ireturn
.end
.method static main ( ) void
.locals 2
    iconst 0
    istore 0        ; i
    iconst 0
    istore 1        ; sum
loop:
    iload 0
    iconst 10000
    if_icmpge done
    iload 1
    iload 0
    invokestatic Main.add
    istore 1
    iinc 0 1
    goto loop
done:
    iload 1
    invokestatic Main.print
    return
.end
.native static print ( int ) void println_int
.end
.entry Main main
`

func buildSession(t *testing.T, src string, opts core.SessionOptions) (*core.Session, *bytes.Buffer) {
	t.Helper()
	prog, err := jasm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	out := &bytes.Buffer{}
	opts.Out = out
	s, err := core.NewSession(prog, pcfg, opts)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	return s, out
}

func TestSessionModesProduceIdenticalOutput(t *testing.T) {
	want := "49995000\n"
	for _, mode := range []core.Mode{core.ModePlain, core.ModeProfile, core.ModeTrace, core.ModeTraceDeploy} {
		t.Run(mode.String(), func(t *testing.T) {
			s, out := buildSession(t, loopProgram, core.SessionOptions{Mode: mode})
			if err := s.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}
			if out.String() != want {
				t.Errorf("output = %q, want %q", out.String(), want)
			}
		})
	}
}

func TestTraceModeFindsLoopTrace(t *testing.T) {
	s, _ := buildSession(t, loopProgram, core.SessionOptions{
		Mode:   core.ModeTrace,
		Params: profile.Params{StartDelay: 64, Threshold: 0.97, DecayInterval: 256},
	})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	c := s.Counters
	if c.Signals == 0 {
		t.Error("profiler produced no signals")
	}
	if c.TracesBuilt == 0 {
		t.Fatal("trace cache built no traces")
	}
	if c.TracesEntered == 0 {
		t.Fatal("no traces were dispatched")
	}
	if c.TracesCompleted == 0 {
		t.Error("no trace ever completed")
	}
	m := s.Metrics()
	if m.CompletionRate < 0.9 {
		t.Errorf("completion rate %.3f for a perfectly regular loop, want >= 0.9", m.CompletionRate)
	}
	if m.Coverage < 0.5 {
		t.Errorf("coverage %.3f, want most of this loop-dominated program covered", m.Coverage)
	}
	if m.AvgTraceLength < 2 {
		t.Errorf("average trace length %.2f, want >= 2 blocks", m.AvgTraceLength)
	}
	t.Logf("counters: %s", c)
	t.Logf("cache:\n%s", s.Cache.Dump())
}

func TestProfileModeBuildsGraph(t *testing.T) {
	s, _ := buildSession(t, loopProgram, core.SessionOptions{Mode: core.ModeProfile})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if s.Graph.NumNodes() == 0 {
		t.Fatal("no BCG nodes created")
	}
	if s.Counters.BlockDispatches == 0 {
		t.Fatal("no dispatches recorded")
	}
	// The dominant loop should yield strongly correlated nodes.
	strong := 0
	s.Graph.Nodes(func(n *profile.Node) {
		if n.State.Correlated() {
			strong++
		}
	})
	if strong == 0 {
		t.Error("no node ever became strongly correlated in a regular loop")
	}
}

func TestPlainModeHasNoProfilerActivity(t *testing.T) {
	s, _ := buildSession(t, loopProgram, core.SessionOptions{Mode: core.ModePlain})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	c := s.Counters
	if c.NodesCreated != 0 || c.Signals != 0 || c.TracesBuilt != 0 {
		t.Errorf("plain mode touched the profiler: %+v", c)
	}
	if c.Instrs == 0 || c.BlockDispatches == 0 {
		t.Error("plain mode recorded no execution")
	}
}

func TestSessionOutputsAgreeAcrossThresholds(t *testing.T) {
	var ref string
	for _, th := range []float64{1.0, 0.99, 0.98, 0.97, 0.95} {
		s, out := buildSession(t, loopProgram, core.SessionOptions{
			Mode:   core.ModeTrace,
			Params: profile.Params{StartDelay: 1, Threshold: th, DecayInterval: 256},
		})
		if err := s.Run(); err != nil {
			t.Fatalf("threshold %v: %v", th, err)
		}
		if ref == "" {
			ref = out.String()
		} else if out.String() != ref {
			t.Errorf("threshold %v changed program output: %q vs %q", th, out.String(), ref)
		}
		if !strings.Contains(ref, "49995000") {
			t.Fatalf("unexpected output %q", ref)
		}
	}
}

// TestInterruptStopsEveryEngine verifies the host-cancellation flag: a
// pre-set interrupt must stop each dispatch engine at its first check, with
// a TrapInterrupted trap and no program output. This is the mechanism the
// serve layer uses to enforce request deadlines.
func TestInterruptStopsEveryEngine(t *testing.T) {
	for _, mode := range []core.Mode{core.ModePlain, core.ModeInstr, core.ModeProfile, core.ModeTrace, core.ModeTraceDeploy} {
		t.Run(mode.String(), func(t *testing.T) {
			var stop atomic.Bool
			stop.Store(true)
			s, out := buildSession(t, loopProgram, core.SessionOptions{Mode: mode, Interrupt: &stop})
			err := s.Run()
			if err == nil {
				t.Fatal("interrupted run succeeded")
			}
			trap, ok := vm.AsTrap(err)
			if !ok || trap.Kind != vm.TrapInterrupted {
				t.Fatalf("error = %v, want TrapInterrupted", err)
			}
			if out.Len() != 0 {
				t.Errorf("interrupted run produced output %q", out.String())
			}
		})
	}
}

// TestInterruptMidRun flips the flag from another goroutine while the
// program loops and expects the run to stop promptly.
func TestInterruptMidRun(t *testing.T) {
	var stop atomic.Bool
	s, _ := buildSession(t, loopProgram, core.SessionOptions{Mode: core.ModeTrace, Interrupt: &stop})
	// The goroutine must be gone before the test returns: a later test that
	// counts process-wide allocations would see its sleep's.
	done := make(chan struct{})
	defer func() { <-done }()
	go func() {
		defer close(done)
		time.Sleep(time.Millisecond)
		stop.Store(true)
	}()
	// Either the run finishes before the flag lands (it is a short loop) or
	// it traps with TrapInterrupted; anything else is a bug.
	if err := s.Run(); err != nil {
		if trap, ok := vm.AsTrap(err); !ok || trap.Kind != vm.TrapInterrupted {
			t.Fatalf("error = %v, want TrapInterrupted", err)
		}
	}
}

func TestSessionWithStaticHints(t *testing.T) {
	prog, err := jasm.Assemble(loopProgram)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	hints := analysis.ComputeHints(pcfg)
	if len(hints.UniqueBlocks()) == 0 || len(hints.LoopHeaders()) == 0 {
		t.Fatalf("loop program yields no hints (unique=%d headers=%d)",
			len(hints.UniqueBlocks()), len(hints.LoopHeaders()))
	}

	out := &bytes.Buffer{}
	s, err := core.NewSession(prog, pcfg, core.SessionOptions{
		Mode: core.ModeTrace, Out: out, Hints: hints,
	})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.String() != "49995000\n" {
		t.Errorf("hinted run output = %q, want %q", out.String(), "49995000\n")
	}
	if s.Counters.NodesSeededUnique == 0 {
		t.Error("hinted run seeded no unique nodes")
	}
	if s.Cache.NumTraces() == 0 {
		t.Error("hinted run built no traces")
	}
}
