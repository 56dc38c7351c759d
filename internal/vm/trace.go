package vm

import (
	"fmt"
	"math"

	"repro/internal/bytecode"
	"repro/internal/cfg"
	"repro/internal/trace"
)

// execTrace executes trace t, whose entry block is the block about to run,
// as a single dispatch. It returns the block to dispatch next after
// completion or side exit, plus the ID of the last block the trace actually
// executed (the "from" side of the next dispatch edge).
//
// It is the only trace executor: the tiers differ in the program it runs
// (unfused or fused, see trace.Program), not in the loop. What ordinary
// dispatch does at every block entry — probe, interrupt poll, step budget —
// is decided once at trace entry: if none of it can fire inside this trace
// the segments run unchecked, otherwise each is entered through checkBlock
// as stepBlock would. Segment boundaries hold exact frame state in both
// forms, so a trap or a probe there sees what ordinary dispatch would; and
// each segment entry records its block in m.block, so a panic is reported
// at the block ordinary dispatch would name.
//
//tracevm:hotpath
func (m *Machine) execTrace(t *trace.Trace) (next *cfg.Block, last cfg.BlockID, halted bool, err error) {
	p, err := m.program(t)
	if err != nil {
		return nil, cfg.NoBlock, false, err
	}
	checked := m.probe != nil || m.interrupt.Load() || m.steps+p.TotalInstrs > m.maxSteps

	t.Entered++
	m.ctr.TracesEntered++
	m.ctr.TraceDispatches++ // the whole trace costs one dispatch
	if p.Fused {
		t.CompiledEntered++
		m.ctr.CompiledDispatches++
	}
	instrsBefore := m.ctr.Instrs

	segs := p.Segs
	blocksRun := 0
	completed := false
	last = cfg.NoBlock
	for i := range segs {
		seg := &segs[i]
		b := seg.Block
		m.block = b
		f := m.top() // re-fetch: call/return segments switch frames
		m.ctr.Instrs += seg.NInstrs
		m.steps += seg.NInstrs
		if checked {
			if err := m.checkBlock(f, b); err != nil {
				return nil, last, false, err
			}
		}
		var (
			nxt *cfg.Block
			h   bool
			err error
		)
		if p.Fused {
			if err := m.execSOps(f, seg); err != nil {
				return nil, last, false, err
			}
			nxt, h, err = m.execTerm(f, seg)
		} else {
			if err := m.execInstrs(f, b.Instrs[:len(b.Instrs)-1]); err != nil {
				return nil, last, false, err
			}
			nxt, h, err = m.execTerminator(f, b)
		}
		if err != nil {
			return nil, last, false, err
		}
		m.ctr.BlockDispatches++
		blocksRun++
		last = b.ID
		if h {
			// The program ended inside the trace. Account the blocks run so
			// far; reaching the final block counts as completion.
			completed = i == len(segs)-1
			m.accountTrace(t, blocksRun, m.ctr.Instrs-instrsBefore, completed)
			return nil, last, true, nil
		}
		if m.hookInsideTraces && m.hook != nil {
			m.ctr.ProfiledDispatches++
			m.hook.OnDispatch(b.ID, nxt.ID)
		}
		if i == len(segs)-1 {
			completed = true
			next = nxt
			break
		}
		if nxt != segs[i+1].Block {
			// Side exit: the actual successor diverged from the recorded
			// path; fall back to ordinary dispatch at the actual successor.
			t.SideExits[i]++
			if p.Fused {
				t.CompiledGuardExits++
			}
			next = nxt
			break
		}
	}
	if !m.hookInsideTraces && m.hook != nil && next != nil {
		// Deployment mode: a trace dispatch executes a single profiling
		// statement — the exit edge keeps the branch context current.
		m.ctr.ProfiledDispatches++
		m.hook.OnDispatch(last, next.ID)
	}
	m.accountTrace(t, blocksRun, m.ctr.Instrs-instrsBefore, completed)
	if p.Fused && !completed && t.TierDownAt > 0 && t.CompiledGuardExits >= t.TierDownAt {
		// Guard-exit storm: discard the fused program and pin the trace at
		// tier 1. The trace itself (and its accounting) survives; only a
		// rebuilt trace gets a fresh shot at tier 2.
		t.Compiled = nil
		t.CompileBarred = true
		if m.tiering != nil {
			m.tiering.TierDown(t)
		}
	}
	return next, last, false, nil
}

// program returns the form of t to execute: the fused program once the
// tiering policy has supplied one (it is asked when the trace's dispatch
// count reaches its tier-up threshold; nil bars the trace from asking
// again), the unfused program, built on first use, otherwise.
//
//tracevm:hotpath
func (m *Machine) program(t *trace.Trace) (*trace.Program, error) {
	if t.Compiled == nil && t.TierUpAt > 0 && t.Entered >= t.TierUpAt && !t.CompileBarred && m.tiering != nil {
		if t.Compiled = m.tiering.Compile(t); t.Compiled == nil {
			t.CompileBarred = true
		}
	}
	if p := t.Compiled; p != nil {
		return p, nil
	}
	if t.Unfused == nil {
		blocks := make([]*cfg.Block, len(t.Blocks)) //tracevm:allow-alloc (cold: first execution of a freshly generated trace)
		for i, id := range t.Blocks {
			if blocks[i] = m.cfg.Block(id); blocks[i] == nil {
				//tracevm:allow-alloc (cold: trap construction on a corrupt trace)
				return nil, &Trap{Kind: TrapBadProgram, Detail: fmt.Sprintf("trace %d references unknown block %d", t.ID, id)}
			}
		}
		t.Unfused = trace.Lower(blocks)
	}
	return t.Unfused, nil
}

func (m *Machine) accountTrace(t *trace.Trace, blocksRun int, instrs int64, completed bool) {
	m.ctr.BlocksInTraces += int64(blocksRun)
	m.ctr.InstrsInTraces += instrs
	if completed {
		t.Completed++
		m.ctr.TracesCompleted++
		m.ctr.CompletedTraceBlocksSum += int64(blocksRun)
		m.ctr.InstrsInCompletedTraces += instrs
	}
}

// execSOps executes a fused segment's superinstructions in frame f. Like
// execInstrs it holds the operand stack in locals — st over the frame's
// capacity, sp its depth — and writes it back on every exit; an SExec range
// is handed to execInstrs with the stack written back first and reloaded
// after.
//
//tracevm:hotpath
func (m *Machine) execSOps(f *frame, seg *trace.Segment) (err error) {
	st, sp, locals := f.stack[:cap(f.stack)], len(f.stack), f.locals
loop:
	for j := range seg.Ops {
		op := &seg.Ops[j]
		switch op.Kind {
		case trace.SExec:
			f.stack = st[:sp]
			if err := m.execInstrs(f, seg.Block.Instrs[op.A:op.B]); err != nil {
				return err
			}
			sp = len(f.stack)
		case trace.SPushConst:
			st[sp] = IntVal(op.Val)
			sp++
		case trace.SPushLocal:
			st[sp] = locals[op.A]
			sp++
		case trace.SStoreLocal:
			sp--
			locals[op.A] = st[sp]
		case trace.SStoreConst:
			locals[op.A] = IntVal(op.Val)
		case trace.SMove:
			locals[op.A] = locals[op.B]
		case trace.SIncLocal:
			locals[op.A].N += op.Val
		case trace.SBin:
			var r Value
			if r, err = m.execSBin(locals, op); err != nil {
				break loop
			}
			if op.Dst >= 0 {
				locals[op.Dst] = r
			} else {
				st[sp] = r
				sp++
			}
		}
	}
	f.stack = st[:sp]
	return err
}

// execSBin computes a specialized arithmetic superinstruction's result,
// reproducing execInstrs' semantics (wrapping int64, division traps, masked
// shifts, IEEE float ops, NaN-aware compares) on operands read straight
// from locals or baked-in constants; execSOps stores it.
//
//tracevm:hotpath
func (m *Machine) execSBin(locals []Value, op *trace.SOp) (Value, error) {
	var a, b Value
	switch op.Mode {
	case trace.SrcLL:
		a, b = locals[op.A], locals[op.B]
	case trace.SrcLC:
		a, b = locals[op.A], IntVal(op.Val)
	case trace.SrcCL:
		a, b = IntVal(op.Val), locals[op.B]
	default: // SrcL: unary
		a = locals[op.A]
	}
	var r Value
	switch op.Op {
	case bytecode.IAdd:
		r = IntVal(a.N + b.N)
	case bytecode.ISub:
		r = IntVal(a.N - b.N)
	case bytecode.IMul:
		r = IntVal(a.N * b.N)
	case bytecode.IDiv:
		if b.N == 0 {
			return r, m.trap(TrapDivByZero, op.PC, "%d / 0", a.N)
		}
		if b.N == -1 {
			r = IntVal(-a.N)
		} else {
			r = IntVal(a.N / b.N)
		}
	case bytecode.IRem:
		if b.N == 0 {
			return r, m.trap(TrapDivByZero, op.PC, "%d %% 0", a.N)
		}
		if b.N == -1 {
			r = IntVal(0)
		} else {
			r = IntVal(a.N % b.N)
		}
	case bytecode.IShl:
		r = IntVal(a.N << (uint64(b.N) & 63))
	case bytecode.IShr:
		r = IntVal(a.N >> (uint64(b.N) & 63))
	case bytecode.IUshr:
		r = IntVal(int64(uint64(a.N) >> (uint64(b.N) & 63)))
	case bytecode.IAnd:
		r = IntVal(a.N & b.N)
	case bytecode.IOr:
		r = IntVal(a.N | b.N)
	case bytecode.IXor:
		r = IntVal(a.N ^ b.N)
	case bytecode.FAdd:
		r = FloatVal(a.Float() + b.Float())
	case bytecode.FSub:
		r = FloatVal(a.Float() - b.Float())
	case bytecode.FMul:
		r = FloatVal(a.Float() * b.Float())
	case bytecode.FDiv:
		r = FloatVal(a.Float() / b.Float())
	case bytecode.FRem:
		r = FloatVal(math.Mod(a.Float(), b.Float()))
	case bytecode.FCmpL, bytecode.FCmpG:
		x, y := a.Float(), b.Float()
		switch {
		case x < y:
			r = IntVal(-1)
		case x > y:
			r = IntVal(1)
		case x == y:
			r = IntVal(0)
		default: // NaN involved
			if op.Op == bytecode.FCmpL {
				r = IntVal(-1)
			} else {
				r = IntVal(1)
			}
		}
	case bytecode.INeg:
		r = IntVal(-a.N)
	case bytecode.FNeg:
		r = FloatVal(-a.Float())
	case bytecode.I2F:
		r = FloatVal(float64(a.N))
	case bytecode.F2I:
		r = IntVal(bytecode.FloatToInt(a.Float()))
	default:
		return r, m.trap(TrapBadProgram, op.PC, "opcode %s is not a compiled arithmetic op", op.Op)
	}
	return r, nil
}

// execTerm applies a segment's lowered terminator.
//
//tracevm:hotpath
func (m *Machine) execTerm(f *frame, seg *trace.Segment) (*cfg.Block, bool, error) {
	t := &seg.Term
	switch t.Kind {
	case trace.TStatic:
		return t.Static, false, nil
	case trace.TPopStatic:
		f.stack = f.stack[:len(f.stack)-int(t.PopN)]
		return t.Static, false, nil
	case trace.TCondI:
		if bytecode.Cond1(t.Op, f.locals[t.A].N) {
			return t.Taken, false, nil
		}
		return t.Fall, false, nil
	case trace.TCondII:
		var a, b int64
		switch t.Mode {
		case trace.SrcLL:
			a, b = f.locals[t.A].N, f.locals[t.B].N
		case trace.SrcLC:
			a, b = f.locals[t.A].N, t.Val
		default: // SrcCL
			a, b = t.Val, f.locals[t.B].N
		}
		if bytecode.Cond2(t.Op, a, b) {
			return t.Taken, false, nil
		}
		return t.Fall, false, nil
	}
	return m.execTerminator(f, seg.Block)
}
