package vm

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"repro/internal/cfg"
	"repro/internal/classfile"
	"repro/internal/stats"
	"repro/internal/trace"
)

// DispatchHook observes block-boundary dispatches. The profiler implements
// it; from and to are the global IDs of the block that just executed and the
// block about to execute. This is the paper's "profiler hook appended to the
// dispatch code".
type DispatchHook interface {
	OnDispatch(from, to cfg.BlockID)
}

// Options configures a Machine.
type Options struct {
	// Out receives program output (default: io.Discard).
	Out io.Writer
	// Hook, if set, is invoked on block dispatches.
	Hook DispatchHook
	// Traces, if set, enables trace dispatch: at every block boundary the
	// engine consults the source and executes a registered trace as a unit.
	Traces trace.Source
	// Tiering, if set alongside Traces, enables tier-2 dispatch: once a
	// trace's dispatch count reaches its tier-up threshold the engine asks
	// the policy for the trace's fused program, executes that in place of
	// the unfused one while it holds, and discards it again (notifying the
	// policy) after a guard-exit storm. Nil keeps every trace unfused.
	Tiering trace.Tiering
	// HookInsideTraces controls profiling fidelity during trace execution.
	// True (measurement mode) runs the hook on every intra-trace edge, so
	// the branch correlation graph sees the full execution stream — this is
	// the paper's experimental framework configuration used for Tables
	// I–V. False (deployment mode) runs a single hook per trace dispatch,
	// the configuration whose overhead Table VII models.
	HookInsideTraces bool
	// Counters receives execution statistics (default: a fresh Counters).
	Counters *stats.Counters
	// MaxSteps bounds executed instructions; 0 means no bound.
	MaxSteps int64
	// MaxFrames bounds call depth (default 1 << 14).
	MaxFrames int
	// Interrupt, if set, is polled at block boundaries: storing true makes
	// the machine stop with a TrapInterrupted trap at the next dispatch.
	// This is how a serving layer cancels a runaway program without killing
	// the process; the flag may be set from any goroutine.
	Interrupt *atomic.Bool
	// Probe, if set, is called at the entry of every executed block —
	// ordinary dispatch and trace dispatch alike — with the live frame
	// state. It exists for differential checkers (the value-flow soundness
	// harness compares static claims against these observations); the
	// slices alias the running frame and must not be mutated or retained.
	// A nil probe costs the block loop a single predictable branch.
	Probe Probe
}

// Probe observes one block entry. See Options.Probe for the contract.
type Probe func(b *cfg.Block, locals, stack []Value)

// Machine executes one program. A machine is single-threaded and not safe
// for concurrent use; run each program on its own machine.
type Machine struct {
	prog *classfile.Program
	cfg  *cfg.ProgramCFG

	out              io.Writer
	hook             DispatchHook
	traces           trace.Source
	tiering          trace.Tiering
	hookInsideTraces bool
	ctr              *stats.Counters
	maxSteps         int64
	maxFrames        int
	interrupt        *atomic.Bool
	probe            Probe

	// traceIx is the concrete dense index behind traces when the source
	// implements trace.IndexedSource; the dispatch loop calls it directly,
	// skipping the per-dispatch interface call.
	traceIx *trace.Index

	natives map[string]NativeFunc
	statics [][]Value // per class ID
	frames  []*frame
	pool    []*frame   // retired frames for reuse (calls are hot)
	argbuf  []Value    // scratch for popping call arguments
	block   *cfg.Block // block or trace segment last entered, for recoverTrap
	steps   int64
	decoded map[*classfile.Method]*decodedMethod // per-instruction engine cache
}

type frame struct {
	method   *classfile.Method
	locals   []Value
	stack    []Value
	retBlock *cfg.Block // resume point after a callee returns
	callPC   uint32     // pc of the pending invoke (for exception tables)
}

// New creates a machine for a linked program with prebuilt CFGs.
func New(prog *classfile.Program, pcfg *cfg.ProgramCFG, opts Options) (*Machine, error) {
	if !prog.Linked() {
		return nil, fmt.Errorf("vm: program is not linked")
	}
	if prog.Main == nil {
		return nil, fmt.Errorf("vm: program has no entry point")
	}
	if pcfg == nil || pcfg.Program != prog {
		return nil, fmt.Errorf("vm: CFG does not belong to the program")
	}
	if opts.Out == nil {
		opts.Out = io.Discard
	}
	if opts.Counters == nil {
		opts.Counters = &stats.Counters{}
	}
	if opts.MaxFrames == 0 {
		opts.MaxFrames = 1 << 14
	}
	// An absent budget or interrupt flag becomes one that never fires, so
	// the dispatch paths test them unconditionally.
	if opts.MaxSteps == 0 {
		opts.MaxSteps = math.MaxInt64
	}
	if opts.Interrupt == nil {
		opts.Interrupt = new(atomic.Bool)
	}
	m := &Machine{
		prog:             prog,
		cfg:              pcfg,
		out:              opts.Out,
		hook:             opts.Hook,
		traces:           opts.Traces,
		tiering:          opts.Tiering,
		hookInsideTraces: opts.HookInsideTraces,
		ctr:              opts.Counters,
		maxSteps:         opts.MaxSteps,
		maxFrames:        opts.MaxFrames,
		interrupt:        opts.Interrupt,
		probe:            opts.Probe,
		natives:          builtinNatives(),
	}
	if is, ok := opts.Traces.(trace.IndexedSource); ok {
		m.traceIx = is.Index()
	}
	m.statics = make([][]Value, len(prog.Classes))
	for i, c := range prog.Classes {
		m.statics[i] = make([]Value, c.NumStatic)
	}
	return m, nil
}

// Counters returns the machine's statistics record.
func (m *Machine) Counters() *stats.Counters { return m.ctr }

// Program returns the machine's program.
func (m *Machine) Program() *classfile.Program { return m.prog }

// CFG returns the machine's control-flow graphs.
func (m *Machine) CFG() *cfg.ProgramCFG { return m.cfg }

// Run executes the program's entry method to completion. It holds the run's
// only panic-recovery frame (see recoverTrap).
//
//tracevm:hotpath
func (m *Machine) Run() (err error) {
	main := m.prog.Main
	entry := m.cfg.MethodEntry(main)
	if entry == nil {
		return fmt.Errorf("vm: entry method %s has no bytecode", main.QName())
	}
	m.block = entry
	defer m.recoverTrap(&err)
	m.frames = m.frames[:0]
	m.pushFrame(main, nil)

	cur := entry
	prev := cfg.NoBlock
	for {
		// Trace dispatch: if a trace is registered on the arrival edge,
		// execute it as a unit. The dense-index path is the common one; the
		// interface path serves baseline selectors with custom sources.
		if prev != cfg.NoBlock {
			var t *trace.Trace
			if m.traceIx != nil {
				t = m.traceIx.Lookup(prev, cur.ID)
			} else if m.traces != nil {
				t = m.traces.Lookup(prev, cur.ID)
			}
			if t != nil && !t.Retired {
				next, last, halted, err := m.execTrace(t)
				if err != nil {
					return err
				}
				if halted {
					return nil
				}
				prev, cur = last, next
				continue
			}
		}

		next, halted, err := m.stepBlock(cur)
		if err != nil {
			return err
		}
		m.ctr.BlockDispatches++
		m.ctr.TraceDispatches++
		if halted {
			return nil
		}
		if m.hook != nil {
			m.ctr.ProfiledDispatches++
			m.hook.OnDispatch(cur.ID, next.ID)
		}
		prev, cur = cur.ID, next
	}
}

func (m *Machine) pushFrame(meth *classfile.Method, args []Value) *frame {
	var f *frame
	if n := len(m.pool); n > 0 {
		f = m.pool[n-1]
		m.pool = m.pool[:n-1]
	} else {
		f = new(frame)
	}
	if cap(f.locals) < meth.MaxLocals {
		f.locals = make([]Value, meth.MaxLocals)
	} else {
		f.locals = f.locals[:meth.MaxLocals]
		clear(f.locals)
	}
	// Room for the verifier's MaxStack, so push's append never grows the
	// stack; a wrong bound costs a reallocation, never correctness.
	if cap(f.stack) < meth.MaxStack {
		f.stack = make([]Value, 0, max(meth.MaxStack, 16))
	}
	f.stack = f.stack[:0]
	f.method, f.retBlock, f.callPC = meth, nil, 0
	copy(f.locals, args)
	m.frames = append(m.frames, f)
	return f
}

// popFrame retires the top frame into the reuse pool and returns it; the
// returned frame stays readable until the next pushFrame.
func (m *Machine) popFrame() *frame {
	f := m.frames[len(m.frames)-1]
	m.frames = m.frames[:len(m.frames)-1]
	m.pool = append(m.pool, f)
	return f
}

// popArgs pops the top n stack values into the machine's scratch buffer
// (valid until the next popArgs). pushFrame copies them into the callee's
// locals, and natives do not retain their argument slice.
func (m *Machine) popArgs(f *frame, n int) []Value {
	if cap(m.argbuf) < n {
		m.argbuf = make([]Value, n)
	}
	args := m.argbuf[:n]
	for i := n - 1; i >= 0; i-- {
		args[i] = f.pop()
	}
	return args
}

func (m *Machine) top() *frame { return m.frames[len(m.frames)-1] }

// trap builds a Trap annotated with the current method and pc.
func (m *Machine) trap(kind TrapKind, pc uint32, format string, args ...any) error {
	t := &Trap{Kind: kind, Detail: fmt.Sprintf(format, args...), PC: pc}
	if len(m.frames) > 0 {
		t.Method = m.top().method.QName()
	}
	return t
}
