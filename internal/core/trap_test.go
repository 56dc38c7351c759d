package core_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/jasm"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
)

// switchProgram's hot loop dispatches on i / 2999 through a lookupswitch:
// key 0 on every iteration but the last, key 1 on the last.
const switchProgram = `
.class Main
.method static main ( ) void
.locals 2
    iconst 0
    istore 0
    iconst 0
    istore 1
loop:
    iload 0
    iconst 3000
    if_icmpge done
    iload 0
    iconst 2999
    idiv
    lookupswitch other 0:zero 1:one
zero:
    iinc 1 1
    goto next
one:
    iinc 1 2
    goto next
other:
    iinc 1 3
next:
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

// corruptSwitch builds switchProgram and truncates its switch block's target
// table behind the linker's back, so the last iteration's key indexes past
// it: a panic inside execTerminator, on a block that is by then part of a
// hot trace. It returns the CFG and the corrupted block.
func corruptSwitch(t *testing.T) (*cfg.ProgramCFG, *cfg.Block) {
	t.Helper()
	prog, err := jasm.Assemble(switchProgram)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	for _, b := range pcfg.Blocks {
		if b.Kind == bytecode.FlowSwitch {
			b.SwitchTargets = b.SwitchTargets[:1]
			return pcfg, b
		}
	}
	t.Fatal("switchProgram has no switch block")
	return nil, nil
}

// TestPanicTrapAttribution pins where a structural panic is reported: the
// same TrapBadProgram string (kind, method, block start PC) after the same
// work whether the faulting block runs under ordinary dispatch or inside a
// trace. Plain dispatch has no trace counters, so against it the executed
// work (instructions, blocks, calls) must match.
func TestPanicTrapAttribution(t *testing.T) {
	type leg struct {
		name string
		mode core.Mode
	}
	legs := []leg{
		{"plain", core.ModePlain},
		{"trace", core.ModeTrace},
	}
	traps := make([]string, len(legs))
	ctrs := make([]stats.Counters, len(legs))
	for i, l := range legs {
		pcfg, bad := corruptSwitch(t)
		s, err := core.NewSession(pcfg.Program, pcfg, core.SessionOptions{
			Mode: l.mode, Params: convergeParams, Out: &testWriter{},
		})
		if err != nil {
			t.Fatalf("%s: session: %v", l.name, err)
		}
		err = s.Run()
		tr, ok := vm.AsTrap(err)
		if !ok || tr.Kind != vm.TrapBadProgram || tr.PC != bad.StartPC() || tr.Method != "Main.main" {
			t.Fatalf("%s: err = %v, want a bad-program trap at Main.main pc %d", l.name, err, bad.StartPC())
		}
		traps[i], ctrs[i] = err.Error(), s.Counters.Snapshot()
		if l.mode == core.ModeTrace {
			if tr := faultedTrace(s.Cache.Traces()); tr == nil || !slices.Contains(tr.Blocks, bad.ID) {
				t.Fatalf("%s: the panic did not strike inside a trace; the leg is vacuous", l.name)
			}
		}
	}
	work := func(c stats.Counters) [4]int64 {
		return [4]int64{c.Instrs, c.BlockDispatches, c.MethodCalls, c.NativeCalls}
	}
	for i := 1; i < len(legs); i++ {
		if traps[i] != traps[0] {
			t.Errorf("%s trapped as %q, plain as %q", legs[i].name, traps[i], traps[0])
		}
		if work(ctrs[i]) != work(ctrs[0]) {
			t.Errorf("%s did different work before the trap: %v, plain %v", legs[i].name, work(ctrs[i]), work(ctrs[0]))
		}
	}
}

// faultedTrace returns the trace whose last entry neither completed nor
// side-exited — the one a trap ended the run in — or nil.
func faultedTrace(traces []*trace.Trace) *trace.Trace {
	for _, tr := range traces {
		open := tr.Entered - tr.Completed
		for _, n := range tr.SideExits {
			open -= n
		}
		if open > 0 {
			return tr
		}
	}
	return nil
}

// TestHookPanicTrapsAtLastBlock: a panic raised by the dispatch hook between
// two blocks is caught by Run's single recovery frame and reported as a
// TrapBadProgram at the block that just executed — the block last entered,
// method and PC both. On a call edge the callee's frame is already pushed
// and on a return edge the callee's is already popped when the hook runs,
// so the top frame names the wrong method there.
func TestHookPanicTrapsAtLastBlock(t *testing.T) {
	prog, err := jasm.Assemble(loopProgram)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	cases := []struct {
		name   string
		edge   func(from, to *cfg.Block) bool
		method string
	}{
		{"intra-method", func(f, to *cfg.Block) bool { return f.Method == to.Method }, "Main.main"},
		{"call", func(f, to *cfg.Block) bool { return f.Kind == bytecode.FlowCall && f.Method != to.Method }, "Main.main"},
		{"return", func(f, to *cfg.Block) bool { return f.Kind == bytecode.FlowReturn }, "Main.add"},
	}
	const warm = 5000 // dispatches before the hook starts looking for its edge
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var calls int64
			var from *cfg.Block
			s, err := core.NewSession(prog, pcfg, core.SessionOptions{
				Mode:   core.ModeProfile,
				Params: convergeParams,
				Out:    &testWriter{},
				WrapHook: func(h vm.DispatchHook) vm.DispatchHook {
					return vm.HookFunc(func(f, to cfg.BlockID) {
						if calls++; calls > warm && c.edge(pcfg.Block(f), pcfg.Block(to)) {
							from = pcfg.Block(f)
							panic("hook failure")
						}
						h.OnDispatch(f, to)
					})
				},
			})
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			err = s.Run()
			tr, ok := vm.AsTrap(err)
			if !ok || tr.Kind != vm.TrapBadProgram || from == nil {
				t.Fatalf("err = %v, want a bad-program trap from the hook", err)
			}
			if tr.PC != from.StartPC() || tr.Method != c.method || from.Method.QName() != c.method {
				t.Errorf("trap at %s pc %d, want %s pc %d (block %d, the last entered)",
					tr.Method, tr.PC, c.method, from.StartPC(), from.ID)
			}
			if s.Counters.BlockDispatches != calls {
				t.Errorf("%d blocks completed before the hook panic, want %d", s.Counters.BlockDispatches, calls)
			}
		})
	}
}

// unrelatedVirtualCall calls A.n on a B. The classes are unrelated, so B's
// vtable has no slot 1. The verifier accepts the call (a receiver is any
// reference), so the engines must trap it at run time.
const unrelatedVirtualCall = `
.class A
.method m ( ) void
    return
.end
.method n ( ) void
    return
.end
.end
.class B
.method init ( ) void
    return
.end
.end
.class Main
.method static main ( ) void
    new B
    invokevirtual A.n
    return
.end
.end
.entry Main main
`

// TestVTableSlotOutOfRangeTrapsAlike pins that the block and the
// per-instruction engines refuse a vtable slot the receiver's class lacks
// with the same bad-program trap, at the call.
func TestVTableSlotOutOfRangeTrapsAlike(t *testing.T) {
	prog, err := jasm.Assemble(unrelatedVirtualCall)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	const want = "vtable slot 1 out of range for class B (at Main.main pc 3)"
	for _, mode := range []core.Mode{core.ModePlain, core.ModeInstr} {
		s, err := core.NewSession(prog, pcfg, core.SessionOptions{Mode: mode, Out: &testWriter{}})
		if err != nil {
			t.Fatalf("%v: session: %v", mode, err)
		}
		err = s.Run()
		if tr, ok := vm.AsTrap(err); !ok || tr.Kind != vm.TrapBadProgram || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("%v: err = %v, want a bad-program trap ending %q", mode, err, want)
		}
	}
}
